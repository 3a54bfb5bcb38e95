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
from palfact.experiments import SUITES, prefix_floor_experiment, ladder_experiment


def test_occurrence_balance_passes():
    result = verify_occurrence_balance(6)
    assert result.ok
    # one structural claim per level
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


def test_suites_parallel_equals_sequential():
    names = ["occdiff", "multibonacci", "ladder"]
    seq = run_suites(names, seed=0, jobs=1)
    par = run_suites(names, seed=0, jobs=3)
    assert [r.name for r in seq] == [r.name for r in par]
    for a, b in zip(seq, par):
        assert [c.to_json() for c in a.claims] == [c.to_json() for c in b.claims]


def test_all_suites_registered():
    assert set(SUITES) == {
        "nextsets", "bound2", "floors", "occdiff", "evperiodic", "greedy",
        "ladder", "lps", "multibonacci", "oracles", "gaps", "uword",
    }
