import json
import multiprocessing
import os
import threading

import pytest

from palfact import (
    Periodic,
    bound_report,
    SearchCapExceeded,
    Word,
    max_prefix_count,
    deletion_monotonicity_check,
    multibonacci,
    run_suites,
    search_prefix_floor,
    u_ladder,
    u_ladder_periodic,
    verify_occurrence_balance,
    verify_multibonacci,
    verify_u_suffixes,
    prefix_floor_witness,
)
from palfact import experiments
from palfact.cli import main
from palfact.eertree import PalindromeIndex, SharedEertree
from palfact.experiments import (
    SUITES,
    _lower_bound_provable,
    ladder_experiment,
    prefix_floor_experiment,
)


def test_occurrence_balance_passes():
    result = verify_occurrence_balance(6)
    assert result.ok
    # one balance claim per level
    assert len(result.claims) == 7


def test_u_suffix_claims():
    result = verify_u_suffixes((0, 2, 10), 10**4)
    assert result.ok
    by_desc = {c.description: c for c in result.claims}
    counts = [c for c in result.claims if "palindromic prefix count" in c.description]
    assert len(counts) == 3
    # offset 0 sees exactly the two unary palindromic prefixes
    assert "count=2, largest=2" in counts[0].observed
    # the mechanically derived covering level for length-5 factors is 3
    level_claim = next(c for c in result.claims if "building-block" in c.description)
    assert "level=3" in level_claim.observed and "gap=216" in level_claim.observed


def test_multibonacci_experiment():
    result = verify_multibonacci(10)
    assert result.ok


def test_max_prefix_count_values():
    assert max_prefix_count(Word("a")) == 1
    assert max_prefix_count(u_ladder(3)[0]) == 3
    assert max_prefix_count(u_ladder_periodic(3), 1000) == 4


def test_max_prefix_count_honours_horizon_on_finite_words():
    assert max_prefix_count(Word("abcd"), 1) == 1
    assert max_prefix_count(Word("abcd"), 1) == bound_report(Word("abcd"), 1, 1).prefix_max
    assert max_prefix_count(Word("abcd")) == 4


def test_ladder_experiment():
    result = ladder_experiment(6)
    assert result.ok, [c for c in result.claims if c.status == "fail"]


def test_search_lower_bounds():
    assert search_prefix_floor(1, 6) == 1
    assert search_prefix_floor(2, 8) == 2
    assert search_prefix_floor(3, 12) == 3
    assert search_prefix_floor(4, 10) == 3


def test_search_budget():
    with pytest.raises(SearchCapExceeded):
        search_prefix_floor(3, 12, node_budget=50)


def recursive_lower_bound_provable(k, b, depth, node_budget):
    """Reference: the canonical search by recursion over symbols, keeping
    its own minimum-factor table and suffix-chain minimum next to the tree's
    shared nodes, so it shares no code with ``SharedEertree.push``."""
    tree = SharedEertree()
    dp = [0]
    budget = [node_budget]

    def rec(used, run_open, maxpal):
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchCapExceeded("budget", nodes=node_budget)
        if maxpal >= b:
            return True
        length = len(dp) - 1
        if length == depth:
            return not (used == k and (k == 1 or not run_open))
        for c in range(used + 1 if used < k else k):
            v, best = tree.advance(c), length + 1
            while tree.lens[v] > 0:
                best = min(best, dp[length + 1 - tree.lens[v]])
                v = tree.link[v]
            dp.append(best + 1)
            new_used = used + 1 if c == used else used
            new_open = (c == used == k - 1) or (run_open and c == k - 1)
            ok = rec(new_used, new_open, max(maxpal, best + 1))
            tree.truncate(length)
            dp.pop()
            if not ok:
                return False
        return True

    return rec(0, False, 0)


def test_prefix_floor_search_matches_recursive_reference():
    for k in range(1, 5):
        for depth in range(1, 13):
            for b in range(1, depth + 1):
                want = recursive_lower_bound_provable(k, b, depth, 10**6)
                assert _lower_bound_provable(k, b, depth, 10**6) == want, (k, b, depth)


def test_prefix_floor_budget_trips_where_the_reference_does():
    def outcome(search, budget):
        verdicts = []
        for b in range(1, 5):
            try:
                verdicts.append(search(3, b, 12, budget))
            except SearchCapExceeded:
                verdicts.append("exhausted")
        return verdicts

    for budget in range(1, 301):
        want = outcome(recursive_lower_bound_provable, budget)
        assert outcome(_lower_bound_provable, budget) == want, budget


def test_witnesses():
    assert prefix_floor_witness(2, 1000) == ("periodic:ab", 2)
    spec, bound = prefix_floor_witness(3, 1000)
    assert spec == "periodic:1213121" and bound == 3
    assert prefix_floor_witness(4, 1000)[1] == 3
    assert prefix_floor_witness(8, 1000)[1] == 4
    with pytest.raises(ValueError):
        prefix_floor_witness(5, 1000)


def test_witness_horizon_stability():
    for k in (2, 3, 4, 8):
        _, b1 = prefix_floor_witness(k, 1000)
        _, b2 = prefix_floor_witness(k, 2000)
        assert b1 == b2


def test_deletion_monotonicity():
    chk = deletion_monotonicity_check(Periodic(Word("abc")), 2, 600)
    assert chk.verdict == "pass"
    assert chk.b_deleted == 2 and chk.b_deleted <= chk.b_original
    chk = deletion_monotonicity_check(Periodic(multibonacci(3)), 3, 700)
    assert chk.verdict == "pass"
    assert chk.b_original <= 3
    with pytest.raises(ValueError):
        deletion_monotonicity_check(Periodic(Word("ab")), 5, 100)
    chk = deletion_monotonicity_check(Periodic(Word("a")), 0, 100)
    assert chk.verdict == "inapplicable"


def test_prefix_floor_experiment():
    result = prefix_floor_experiment()
    assert result.ok, [c for c in result.claims if c.status == "fail"]


def test_suite_registry_runs_clean():
    results = run_suites(["evperiodic", "occdiff"], seed=0)
    assert [r.name for r in results] == ["evperiodic", "occdiff"]
    assert all(r.ok for r in results)


def test_suite_registry_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(["nonsense"])


def test_run_suites_times_every_suite():
    results = run_suites(["occdiff", "multibonacci", "ladder"], seed=0)
    assert [r.name for r in results] == ["ladder", "multibonacci", "occdiff"]
    assert all(r.runtime > 0 for r in results)
    assert all("runtime_seconds" in r.to_json() for r in results)
    assert all("runtime_seconds" not in r.to_json(timings=False) for r in results)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the suite pool forks its workers")


@pytest.fixture(params=[pytest.param(2, marks=needs_fork, id="pooled"),
                        pytest.param(1, id="in-process")])
def cpus(request, monkeypatch):
    """Usable CPUs: two (a pool of two workers) or one (every suite in this
    process)."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: request.param)
    return request.param


def reports_its_pid(seed=0):
    """A stand-in suite that reports the process it ran in."""
    return experiments.ExperimentResult("occdiff", {"pid": os.getpid()})


def test_run_suites_returns_name_order_timed_where_it_ran(monkeypatch, cpus):
    monkeypatch.setitem(SUITES, "occdiff", reports_its_pid)
    names = ["occdiff", "lps", "bound2", "ladder"]
    results = run_suites(names, seed=1)
    assert [r.name for r in results] == sorted(names)
    assert all(r.runtime > 0 for r in results)
    ran_here = results[-1].params["pid"] == os.getpid()
    assert ran_here == (cpus == 1)


def test_run_suites_stays_in_process_beside_other_threads(monkeypatch):
    # fork would copy only this thread, so the pool is not used while
    # another thread runs
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(SUITES, "occdiff", reports_its_pid)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        results = run_suites(["occdiff", "ladder"])
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert results[1].params["pid"] == os.getpid()


def test_verify_all_output_does_not_depend_on_the_pool(capsys, monkeypatch):
    outputs = []
    for count in (2, 1):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)
        assert main(["verify", "all", "--format", "json", "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@needs_fork
def test_a_pooled_suite_raises_its_own_exception():
    # random.Random rejects a list seed; each worker's TypeError must come
    # back as that suite's failed claim naming a TypeError, and the pool
    # must not outlive the call
    results = run_suites(["lps", "oracles"], seed=[3])
    assert [r.name for r in results] == ["lps", "oracles"]
    for res in results:
        assert not res.ok
        [claim] = res.claims
        assert claim.status == "fail"
        assert claim.observed.startswith("TypeError: ")
    assert multiprocessing.active_children() == []


BOUND2_FAULT = ("family ((ab)^i a)^w matched but the prefix maximum is 102 "
                "at horizon 1000")


def test_a_suite_that_raises_fails_without_hiding_the_others(capsys, monkeypatch):
    # one suite's exception used to end `verify all` with a traceback and
    # nothing on stdout; this is the fault a wrong series walk raised in bound2
    def faulty(seed=0):
        raise RuntimeError(BOUND2_FAULT)

    assert main(["verify", "all"]) == 0
    clean = capsys.readouterr().out.splitlines()
    monkeypatch.setitem(SUITES, "bound2", faulty)
    outputs = []
    for count in (2, 1):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)
        assert main(["verify", "all"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert [line for line in lines if "bound2" in line] == [
        "[FAIL] bound2: suite runs to completion (expected=no exception, "
        f"observed=RuntimeError: {BOUND2_FAULT})",
        "[FAILED] suite bound2 (1 claims)"]
    # every other suite reports exactly what it reports without the fault
    assert ([line for line in lines if "bound2" not in line]
            == [line for line in clean if "bound2" not in line])


def test_a_suite_out_of_memory_still_exits_2(capsys, monkeypatch, cpus):
    def exhausted(seed=0):
        raise MemoryError

    monkeypatch.setitem(SUITES, "occdiff", exhausted)
    assert main(["verify", "occdiff", "ladder"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory in verify\n"


@needs_fork
def test_a_dead_worker_exits_2_with_a_message(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(SUITES, "occdiff", lambda seed=0: os._exit(3))
    assert main(["verify", "occdiff", "ladder"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a suite worker process died before ")
    assert "occdiff" in captured.err and "Traceback" not in captured.err
    assert multiprocessing.active_children() == []


def test_verify_all_times_every_suite_and_leaves_no_worker_behind(capsys):
    assert main(["verify", "all", "--timings", "--format", "json"]) == 0
    assert multiprocessing.active_children() == []
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == len(SUITES)
    assert all(r["runtime_seconds"] > 0 for r in results)


def test_greedy_suite_catches_an_off_by_one_left_greedy_walk(monkeypatch):
    # the duality claim must compare two independent computations, so a
    # fault in the forward walk alone has to show up as a failed claim
    original = PalindromeIndex.left_greedy_counts

    def off_by_one(self):
        counts = original(self)
        return counts[:-1] + [counts[-1] + 1] if counts else counts

    assert SUITES["greedy"]().ok
    monkeypatch.setattr(PalindromeIndex, "left_greedy_counts", off_by_one)
    result = SUITES["greedy"]()
    assert not result.ok
    failed = {c.description for c in result.failures()}
    assert "left-greedy equals right-greedy of the reversal" in failed


def test_greedy_suite_counts_a_raising_gap_witness_as_a_failed_floor(monkeypatch, capsys):
    # gap_witness raises when the minimum exceeds a greedy count; the suite
    # must report that as a failed claim, not end in a traceback
    original = experiments.gap_witness

    def undercut(w):
        if w == Word("abb"):
            raise RuntimeError("greedy counts undercut the minimum")
        return original(w)

    monkeypatch.setattr(experiments, "gap_witness", undercut)
    result = SUITES["greedy"]()
    failed = {c.description for c in result.failures()}
    assert failed == {"minimum <= both greedy counts on all binary words up to "
                      "length 12"}
    assert main(["verify", "greedy"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] greedy: minimum <= both greedy counts" in out
    assert "observed=1)" in out


def test_all_suites_registered():
    assert set(SUITES) == {
        "nextsets", "bound2", "floors", "occdiff", "evperiodic", "greedy",
        "ladder", "lps", "multibonacci", "oracles", "gaps", "uword",
    }
