"""Verification experiments over the named word families, plus the suite
registry behind ``palfact verify``.

Each experiment returns an ``ExperimentResult`` whose claims carry an
expected and an observed value.  Claims that only make sense at a finite
horizon are marked ``horizon-limited`` rather than ``pass``: they are
evidence, not proofs.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import oracles
from .analysis import (
    EMPTY_ITEMS,
    alphabet_bound_check,
    bound_report,
    classify_bound2,
    enumerate_next,
    validate_next_member,
    verify_next_closed_forms,
)
from .eertree import PalindromeIndex, SharedEertree
from .engine import (gap_sequence, palindromic_prefix_lengths, palindromic_prefixes,
                     product_of_two_palindromes)
from .errors import SearchCapExceeded, WorkerDied
from .greedy import gap_witness, lgpal, lgpal_profile, rgpal
from .pallen import pal_dp, pal_fast
from .streams import (
    EventuallyPeriodic,
    InfiniteWord,
    Periodic,
    closure_power_stream,
    fibonacci_stream,
    materialize,
    multibonacci,
    spec_of,
    u_ladder,
    u_ladder_periodic,
    word_u_component,
    word_u_stream,
)
from .words import Word, is_palindrome, is_primitive, mirror

BBAB = (1, 1, 0, 1)
BABB = (1, 0, 1, 1)


@dataclass(frozen=True)
class Claim:
    description: str
    expected: str
    observed: str
    status: str  # "pass" | "fail" | "horizon-limited"

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "expected": self.expected,
            "observed": self.observed,
            "status": self.status,
        }


@dataclass
class ExperimentResult:
    name: str
    params: dict
    claims: list[Claim] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def failures(self) -> list[Claim]:
        return [c for c in self.claims if c.status == "fail"]

    def to_json(self, timings: bool = True) -> dict:
        doc = {
            "name": self.name,
            "params": dict(self.params),
            "claims": [c.to_json() for c in self.claims],
            "ok": self.ok,
        }
        if timings:
            doc["runtime_seconds"] = round(self.runtime, 3)
        return doc


def _eq_claim(description: str, expected, observed) -> Claim:
    ok = expected == observed
    return Claim(description, str(expected), str(observed), "pass" if ok else "fail")


def _evidence_claim(description: str, observed) -> Claim:
    return Claim(description, "recorded", str(observed), "horizon-limited")


def _delta_scan(w: Sequence[int]):
    """Running bbab-minus-babb occurrence difference per prefix.

    Yields (prefix_length, delta) with overlapping occurrences counted.
    """
    t = tuple(w)
    delta = 0
    for i in range(len(t)):
        if i >= 3:
            quad = t[i - 3 : i + 1]
            if quad == BBAB:
                delta += 1
            elif quad == BABB:
                delta -= 1
        yield i + 1, delta


def verify_occurrence_balance(n_max: int = 6) -> ExperimentResult:
    """Every prefix of u_n reverse(u_n) has at least as many bbab as babb
    occurrences, for every n up to n_max."""
    result = ExperimentResult("occdiff", {"n_max": n_max})
    for n in range(n_max + 1):
        un = word_u_component(n)
        w = un + mirror(un)
        violation = None
        for length, delta in _delta_scan(w):
            if delta < 0:
                violation = length
                break
        result.claims.append(
            _eq_claim(
                f"bbab/babb difference >= 0 on all {len(w)} prefixes of "
                f"u_{n} rev(u_{n})",
                "no violation",
                "no violation" if violation is None else f"violation at {violation}",
            )
        )
    return result


def verify_u_suffixes(
    offsets: Sequence[int] = (0, 2, 10), horizon: int = 10**4
) -> ExperimentResult:
    """Palindromic prefixes of the suffixes of U are few and short: past the
    last prefix where the bbab/babb difference is nonpositive, no palindromic
    prefix can occur at all."""
    result = ExperimentResult("uword", {"offsets": list(offsets), "horizon": horizon})
    stream = word_u_stream()
    base = stream.prefix(horizon + max(offsets))
    for s in offsets:
        seg = base[s : s + horizon]
        pp = palindromic_prefix_lengths(PalindromeIndex(seg).lps)
        last_nonpos = 0
        for length, delta in _delta_scan(seg):
            if delta <= 0:
                last_nonpos = length
        largest = pp[-1] if pp else 0
        result.claims.append(
            _evidence_claim(
                f"suffix at offset {s}: palindromic prefix count within "
                f"horizon {horizon}",
                f"count={len(pp)}, largest={largest}",
            )
        )
        result.claims.append(
            _eq_claim(
                f"suffix at offset {s}: difference stays positive beyond "
                f"prefix {last_nonpos}, so palindromic prefixes stop there",
                True,
                largest <= last_nonpos < horizon,
            )
        )
    # Uniform recurrence spot check for length-5 factors.  The construction
    # bounds the gap by 2|u_k| + 4 once every factor of that length occurs in
    # the building block u_k, so find the least covering level first.
    flen, window = 5, 1000
    probe = stream.prefix(4 * window)
    all_factors = {tuple(probe[i : i + flen]) for i in range(len(probe) - flen + 1)}
    level = 0
    while True:
        uk = word_u_component(level)
        if len(uk) >= flen and all_factors <= {
            tuple(uk[i : i + flen]) for i in range(len(uk) - flen + 1)
        }:
            break
        level += 1
    gap = 2 * len(uk) + 4
    result.claims.append(
        _evidence_claim(
            f"least building-block level containing every length-{flen} "
            f"factor, and the implied gap bound",
            f"level={level}, gap={gap}",
        )
    )
    scan = stream.prefix(window + gap + flen)
    positions: dict[tuple, list[int]] = {}
    for i in range(len(scan) - flen + 1):
        positions.setdefault(tuple(scan[i : i + flen]), []).append(i)
    bad = None
    worst = 0
    for i in range(window - flen + 1):
        occ = positions[tuple(scan[i : i + flen])]
        nxt = next((p for p in occ if p > i), None)
        if nxt is None or nxt - i > gap:
            bad = i
            break
        if nxt - i > worst:
            worst = nxt - i
    result.claims.append(
        _eq_claim(
            f"every length-{flen} factor of the first {window} symbols of U "
            f"recurs within a start gap of {gap} (worst observed {worst})",
            "no violation",
            "no violation" if bad is None else f"violation at offset {bad}",
        )
    )
    return result


def _fresh_pair(w: Sequence[int]) -> tuple[int, int]:
    top = max(w) + 1
    return top, top + 1


def build_gap_word(n: int) -> Word:
    """M_n = (m_n minus first symbol) a b (m_n minus last symbol) with a, b
    fresh symbols above everything in m_n."""
    m = multibonacci(n)
    a, b = _fresh_pair(m)
    return m[1:] + Word((a, b)) + m[:-1]


def verify_multibonacci(n_max: int = 10) -> ExperimentResult:
    """The nested doubling words realize an arbitrarily large gap between the
    minimum factor count and both greedy counts."""
    result = ExperimentResult("multibonacci", {"n_max": n_max})
    for n in range(2, n_max + 1):
        m = multibonacci(n)
        head = m[1:]  # first symbol removed
        tail = m[:-1]  # last symbol removed
        result.claims.append(
            _eq_claim(f"minimum factor count of m_{n} minus last", 2, pal_fast(tail)[0])
        )
        result.claims.append(
            _eq_claim(
                f"left-greedy count of m_{n} minus last", 2 * n - 2, lgpal(tail)[0]
            )
        )
        result.claims.append(
            _eq_claim(
                f"right-greedy count of m_{n} minus first", 2 * n - 2, rgpal(head)[0]
            )
        )
        big = build_gap_word(n)
        p, lg, rg = gap_witness(big)
        result.claims.append(_eq_claim(f"minimum factor count of M_{n}", 6, p))
        result.claims.append(_eq_claim(f"left-greedy count of M_{n}", 2 * n + 2, lg))
        result.claims.append(_eq_claim(f"right-greedy count of M_{n}", 2 * n + 2, rg))
    return result


def max_prefix_count(source, horizon: int | None = None) -> int:
    """Maximum minimum-factor count over all prefixes of length at most
    ``horizon`` (required for streams; a finite word without one is taken
    whole)."""
    w = materialize(source, horizon)
    dp = PalindromeIndex(w, track_min=True).min_factors
    return max(dp[1:], default=0)


def _lower_bound_provable(k: int, b: int, depth: int, node_budget: int) -> bool:
    """Whether every length-``depth`` word over exactly k letters whose
    final letter introduction has been resolved (a different symbol follows
    the last new letter's first run) has some prefix needing >= b factors.

    Canonical search: letters are numbered by first occurrence, a branch
    closes as soon as some prefix reaches b, and branches that never come to
    use all k letters (or never resolve the last run) are out of scope.
    """
    tree = SharedEertree()
    push = tree.push
    truncate = tree.truncate
    left = node_budget
    # Nodes still to visit, in preorder: (parent's length, symbol appended,
    # letters used, last letter's first run still open, parent's prefix
    # maximum).  The root appends nothing (symbol -1).
    stack = [(0, -1, 0, False, 0)]
    while stack:
        length, c, used, run_open, maxpal = stack.pop()
        if c >= 0:
            truncate(length)
            val = push(c)
            length += 1
            if val > maxpal:
                maxpal = val
        left -= 1
        if left < 0:
            raise SearchCapExceeded(
                f"node budget {node_budget} exhausted", nodes=node_budget
            )
        if maxpal >= b:
            continue
        if length == depth:
            if used == k and (k == 1 or not run_open):
                return False
            continue
        for c in range(used if used < k else k - 1, -1, -1):
            if c == used:
                stack.append((length, c, used + 1, used == k - 1, maxpal))
            else:
                stack.append((length, c, used, run_open and c == k - 1, maxpal))
    return True


def search_prefix_floor(k: int, depth: int, node_budget: int = 5_000_000) -> int:
    """Largest b such that the depth-bounded canonical search proves every
    qualifying word over exactly k letters has a prefix needing >= b
    palindromic factors."""
    if k < 1 or depth < 1:
        raise ValueError("alphabet size and depth must be >= 1")
    b = 0
    while b < depth and _lower_bound_provable(k, b + 1, depth, node_budget):
        b += 1
    return b


def prefix_floor_witness(k: int, horizon: int = 1000) -> tuple[str, int]:
    """A stream over exactly k letters with a small prefix maximum, and that
    maximum computed at the horizon."""
    if k == 2:
        stream: InfiniteWord = Periodic(Word("ab"))
    elif k == 3:
        stream = Periodic(multibonacci(3))
    elif k >= 4 and (k & (k - 1)) == 0:
        stream = u_ladder_periodic(k.bit_length() - 1)
    else:
        raise ValueError("witnesses exist for k = 2, 3 and powers of two")
    return spec_of(stream), max_prefix_count(stream, horizon)


@dataclass(frozen=True)
class DeletionCheck:
    verdict: str  # "pass" | "fail" | "inapplicable"
    b_original: int
    b_deleted: int | None


def deletion_monotonicity_check(stream, letter: int, horizon: int) -> DeletionCheck:
    """Removing every occurrence of one letter never raises the prefix
    maximum."""
    w = materialize(stream, horizon)
    if letter not in set(w):
        raise ValueError(f"letter {letter} does not occur in the first {len(w)} symbols")
    b_orig = max_prefix_count(w)
    deleted = Word(s for s in w if s != letter)
    if not deleted:
        return DeletionCheck("inapplicable", b_orig, None)
    b_del = max_prefix_count(deleted)
    return DeletionCheck("pass" if b_del <= b_orig else "fail", b_orig, b_del)


def ladder_experiment(n_max: int = 6) -> ExperimentResult:
    """The shifted-alphabet ladder: B(u_n) = n and the periodic word over
    u_n v_n has prefix maximum n + 1."""
    result = ExperimentResult("ladder", {"n_max": n_max})
    for n in range(1, n_max + 1):
        u, v = u_ladder(n)
        result.claims.append(_eq_claim(f"|u_{n}|", 3 ** (n - 1), len(u)))
        result.claims.append(
            _eq_claim(f"u_{n} and v_{n} are palindromes", True,
                      is_palindrome(u) and is_palindrome(v))
        )
        # Observed count is 2**(n-1); the doubling happens only across the
        # u_n v_n pair, which uses 2**n values.
        result.claims.append(
            _eq_claim(f"distinct symbols of u_{n}", 2 ** (n - 1), len(set(u)))
        )
        result.claims.append(
            _eq_claim(f"distinct symbols of u_{n} v_{n}", 2**n, len(set(u + v)))
        )
        result.claims.append(_eq_claim(f"B(u_{n})", n, max_prefix_count(u)))
        horizon = 30 * len(u + v)
        result.claims.append(
            _eq_claim(
                f"prefix maximum of (u_{n} v_{n})^w at horizon {horizon}",
                n + 1,
                max_prefix_count(u_ladder_periodic(n), horizon),
            )
        )
    return result


def prefix_floor_experiment() -> ExperimentResult:
    """Lower-bound searches, witness streams, horizon stability and deletion
    monotonicity for the least-prefix-maximum question."""
    result = ExperimentResult("floors", {})
    result.claims.append(_eq_claim("lower bound for 1 letter at depth 6", 1,
                                   search_prefix_floor(1, 6)))
    result.claims.append(_eq_claim("lower bound for 2 letters at depth 8", 2,
                                   search_prefix_floor(2, 8)))
    result.claims.append(_eq_claim("lower bound for 3 letters at depth 12", 3,
                                   search_prefix_floor(3, 12)))
    result.claims.append(_eq_claim("lower bound for 4 letters at depth 10", 3,
                                   search_prefix_floor(4, 10)))
    expected_bounds = {2: 2, 3: 3, 4: 3, 8: 4}
    for k, expect in expected_bounds.items():
        spec, bound = prefix_floor_witness(k, 1000)
        result.claims.append(
            _eq_claim(f"witness stream for {k} letters ({spec}) prefix maximum",
                      expect, bound)
        )
        _, doubled = prefix_floor_witness(k, 2000)
        result.claims.append(
            _eq_claim(f"witness for {k} letters: bound stable when the horizon "
                      f"doubles", bound, doubled)
        )
    chk = deletion_monotonicity_check(Periodic(Word("abc")), 2, 600)
    result.claims.append(
        _eq_claim("deleting c from (abc)^w keeps the prefix maximum monotone "
                  f"({chk.b_deleted} <= {chk.b_original})", "pass", chk.verdict)
    )
    chk = deletion_monotonicity_check(Periodic(multibonacci(3)), 3, 700)
    result.claims.append(
        _eq_claim("deleting 3 from (1213121)^w keeps the prefix maximum "
                  f"monotone ({chk.b_deleted} <= {chk.b_original})",
                  "pass", chk.verdict)
    )
    return result


# --------------------------------------------------------------------------
# Remaining suites for the `verify` front end
# --------------------------------------------------------------------------


def next_sets_suite(i_max: int = 4, j_max: int = 4, k_max: int = 4,
                    len_cap: int = 64) -> ExperimentResult:
    result = ExperimentResult(
        "nextsets",
        {"i_max": i_max, "j_max": j_max, "k_max": k_max, "len_cap": len_cap},
    )
    verdicts = verify_next_closed_forms(i_max, j_max, k_max, len_cap)
    by_item: dict[int, list] = {}
    for v in verdicts:
        by_item.setdefault(v.item, []).append(v)
    for item in sorted(by_item):
        vs = by_item[item]
        bad = [v for v in vs if v.status != "pass"]
        observed = "all match" if not bad else (
            f"{len(bad)} mismatches, first: {bad[0].params} "
            f"({bad[0].counterexample})"
        )
        result.claims.append(
            _eq_claim(
                f"next-set closed form, item {item} ({len(vs)} parameter "
                f"choices)", "all match", observed
            )
        )
    empties = [v for v in verdicts if v.item in EMPTY_ITEMS]
    open_total = sum(v.open_count for v in empties)
    result.claims.append(
        _eq_claim("empty-set items exhaust with zero open branches", 0, open_total)
    )
    # spot-check: every reported member passes the independent re-validation
    spot = enumerate_next(Word("aab"), min(len_cap, 24))
    result.claims.append(
        _eq_claim(
            "independent re-validation of enumerated members for base aab",
            True,
            all(validate_next_member(Word("aab"), m) for m in spot.palindromes),
        )
    )
    return result


def bound2_suite(horizon: int = 1000) -> ExperimentResult:
    result = ExperimentResult("bound2", {"horizon": horizon})
    cases = [
        ("a(abba)^w", EventuallyPeriodic(Word("a"), Word("abba")), 2),
        ("(abba)^w", Periodic(Word("abba")), 3),
        ("(abac)^w", Periodic(Word("abac")), 3),
        ("(ababa)^w", Periodic(Word("ababa")), 2),
    ]
    reports = {}  # label -> (stream, report); the classifications reuse them
    for label, stream, expect in cases:
        rep = bound_report(stream, horizon, 100)
        reports[label] = stream, rep
        result.claims.append(
            _eq_claim(f"prefix maximum of {label} at horizon {horizon}",
                      expect, rep.prefix_max)
        )
    stream, rep = reports["(ababa)^w"]
    result.claims.append(
        _eq_claim("windowed factor maximum of (ababa)^w", 3, rep.factor_max)
    )
    cls = classify_bound2(stream, horizon, report=rep)
    result.claims.append(
        _eq_claim("classification of (ababa)^w", "((ab)^i a)^w i=2",
                  f"{cls.family} i={cls.params.get('i')}")
    )
    cls = classify_bound2(EventuallyPeriodic(Word("a"), Word("baa")), horizon)
    result.claims.append(
        _eq_claim("classification of a(baa)^w", "(a^i b a^j)^w with isolated-b "
                  "form (1, 2)", f"{cls.family} with isolated-b form {cls.bplf2}")
    )
    stream, rep = reports["(abba)^w"]
    cls = classify_bound2(stream, horizon, report=rep)
    result.claims.append(
        _eq_claim("classification of (abba)^w", "no closed form",
                  "no closed form" if cls.family is None else cls.family)
    )
    result.claims.append(
        _eq_claim("binary-alphabet check on (ab)^w", "pass",
                  alphabet_bound_check(Periodic(Word("ab")), horizon))
    )
    result.claims.append(
        _eq_claim("binary-alphabet check on (abac)^w", "inapplicable",
                  alphabet_bound_check(Periodic(Word("abac")), horizon))
    )
    # every two-factor-bounded family member stays within two factors
    streams: list[tuple[str, InfiniteWord]] = [("a^w", Periodic(Word("a")))]
    for i in range(1, 5):
        for j in range(1, 5):
            streams.append((f"(a^{i} b a^{j})^w",
                            Periodic(Word("a") * i + Word("b") + Word("a") * j)))
            streams.append((f"(a^{i} b^{j})^w",
                            Periodic(Word("a") * i + Word("b") * j)))
    for i in range(2, 5):
        streams.append((f"((ab)^{i} a)^w",
                        Periodic(Word("ab") * i + Word("a"))))
    worst = 0
    for _, stream in streams:
        worst = max(worst, max_prefix_count(stream, horizon))
    result.claims.append(
        _eq_claim(
            f"prefix maximum <= 2 across all {len(streams)} closed-family "
            f"instances with parameters <= 4", True, worst <= 2
        )
    )
    return result


def gap_suite(horizon: int = 10**4) -> ExperimentResult:
    result = ExperimentResult("gaps", {"horizon": horizon})
    streams: list[tuple[str, object]] = [
        ("(ab)^w", Periodic(Word("ab"))),
        ("(abba)^w", Periodic(Word("abba"))),
        ("(aba)^w", Periodic(Word("aba"))),
        ("fib", fibonacci_stream()),
        ("closurepow", closure_power_stream()),
    ]
    for label, stream in streams:
        seq = palindromic_prefixes(stream, horizon)
        if len(seq) < 3:
            result.claims.append(
                _eq_claim(f"{label}: at least three palindromic prefixes",
                          ">=3", len(seq))
            )
            continue
        gs = gap_sequence(seq)
        result.claims.append(
            _eq_claim(f"{label}: palindromic-prefix gaps are non-decreasing "
                      f"({len(seq)} prefixes within {horizon})",
                      True, gs.monotone)
        )
        stabilized = gs.stabilized_gap()
        if isinstance(stream, Periodic):
            result.claims.append(
                _eq_claim(f"{label}: gaps settle to a constant, as they must "
                          f"for a periodic stream", True, stabilized is not None)
            )
        else:
            result.claims.append(
                _evidence_claim(f"{label}: final gaps (unbounded growth "
                                f"expected for aperiodic streams)",
                                gs.gaps[-3:] if len(gs.gaps) >= 3 else gs.gaps)
            )
    # split test against long-palindrome production in periodic streams
    mism = []
    for length in range(1, 11):
        for bits in range(2**length):
            w = Word(tuple((bits >> i) & 1 for i in range(length)))
            if not is_primitive(w):
                continue
            split = product_of_two_palindromes(w)
            # index w^50 one period at a time; node counts only grow, so the
            # verdict is settled once 20 long palindromes have appeared
            idx = PalindromeIndex()
            long_count = 0
            for _ in range(50):
                seen = idx.node_count()
                idx.extend(w)
                long_count += sum(
                    1 for node_len in idx.palindrome_lengths()[seen:]
                    if node_len > length
                )
                if long_count >= 20:
                    break
            rich = long_count >= 20
            if (split is not None) != rich:
                mism.append(w)
    result.claims.append(
        _eq_claim(
            "two-palindrome split of a primitive word coincides with its "
            "periodic stream producing >= 20 distinct palindromic factors "
            "longer than the period (all binary words up to length 10)",
            0, len(mism)
        )
    )
    return result


def eventually_periodic_suite(horizon: int = 200, min_prefixes: int = 5) -> ExperimentResult:
    """Eventually periodic streams with unboundedly many palindromic prefixes
    always have a purely periodic presentation.

    Finite proxy for "infinitely many": at least ``min_prefixes`` palindromic
    prefixes, one of them in the top half of the horizon.  Streams with
    bounded palindromic-prefix gaps always satisfy it; streams whose only
    palindromic prefixes sit inside a leading unary run do not qualify.
    """
    result = ExperimentResult(
        "evperiodic", {"horizon": horizon, "min_prefixes": min_prefixes}
    )
    flagged = []
    checked = 0
    for ulen in range(0, 4):
        for ubits in range(2**ulen):
            u = Word(tuple((ubits >> i) & 1 for i in range(ulen)))
            for vlen in range(1, 4):
                for vbits in range(2**vlen):
                    v = Word(tuple((vbits >> i) & 1 for i in range(vlen)))
                    stream = EventuallyPeriodic(u, v)
                    w = stream.prefix(horizon)
                    pp = palindromic_prefixes(w, horizon)
                    if len(pp) < min_prefixes or pp.lengths[-1] < horizon // 2:
                        continue
                    checked += 1
                    pure = any(
                        all(w[i] == w[i - p] for i in range(p, horizon))
                        for p in range(1, ulen + vlen + 1)
                    )
                    if not pure:
                        flagged.append((str(u), str(v)))
    result.claims.append(
        _eq_claim(
            f"every eventually periodic stream with >= {min_prefixes} "
            f"palindromic prefixes reaching the top half of horizon "
            f"{horizon} is purely periodic ({checked} streams qualified)",
            0, len(flagged)
        )
    )
    return result


def _random_word(rng: random.Random, max_len: int, alphabet: int) -> Word:
    n = rng.randint(0, max_len)
    return Word(tuple(rng.randrange(alphabet) for _ in range(n)))


def oracles_suite(seed: int = 0) -> ExperimentResult:
    """Three-way agreement of the factor-count implementations."""
    result = ExperimentResult("oracles", {"seed": seed})
    mism = 0
    for length in range(0, 13):
        for bits in range(2**length):
            w = tuple((bits >> i) & 1 for i in range(length))
            brute = oracles.brute_pal_table(w)
            if (
                list(pal_dp(w)[1].values) != brute
                or list(pal_fast(w)[1].values) != brute
            ):
                mism += 1
    result.claims.append(
        _eq_claim("table agreement on all binary words up to length 12", 0, mism)
    )
    rng = random.Random(seed)
    mism = 0
    for _ in range(200):
        w = _random_word(rng, 300, rng.choice((2, 3, 4)))
        brute = oracles.brute_pal_table(w)
        if (
            list(pal_dp(w)[1].values) != brute
            or list(pal_fast(w)[1].values) != brute
        ):
            mism += 1
    result.claims.append(
        _eq_claim("table agreement on 200 random words up to length 300", 0, mism)
    )
    return result


def lps_suite(seed: int = 0) -> ExperimentResult:
    """Longest-palindromic-suffix array and distinct-palindrome counts against
    the scanning references."""
    result = ExperimentResult("lps", {"seed": seed})
    mism = nodes_bad = 0
    for length in range(0, 12):
        for bits in range(2**length):
            w = tuple((bits >> i) & 1 for i in range(length))
            idx = PalindromeIndex(w)
            if idx.lps != oracles.brute_lps_array(w):
                mism += 1
            if idx.node_count() != len(oracles.brute_distinct_palindromes(w)):
                nodes_bad += 1
    result.claims.append(
        _eq_claim("suffix arrays match on all binary words up to length 11",
                  0, mism)
    )
    result.claims.append(
        _eq_claim("node counts equal distinct palindromic factor counts",
                  0, nodes_bad)
    )
    rng = random.Random(seed)
    mism = incr_bad = 0
    for _ in range(150):
        w = tuple(_random_word(rng, 400, rng.choice((2, 3, 4))))
        if PalindromeIndex(w).lps != oracles.brute_lps_array(w):
            mism += 1
        if w:
            head, last = w[:-1], w[-1]
            idx = PalindromeIndex(head)
            idx.append(last)
            full = PalindromeIndex(w)
            if idx.lps != full.lps or idx.node_count() != full.node_count():
                incr_bad += 1
    result.claims.append(
        _eq_claim("suffix arrays match on 150 random words up to length 400",
                  0, mism)
    )
    result.claims.append(
        _eq_claim("appending one symbol equals rebuilding from scratch",
                  0, incr_bad)
    )
    return result


def greedy_suite(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult("greedy", {"seed": seed})
    bad_floor = bad_dual = bad_greedy = 0
    for length in range(0, 13):
        for bits in range(2**length):
            w = Word(tuple((bits >> i) & 1 for i in range(length)))
            try:
                _, lg, rg = gap_witness(w)
            except RuntimeError:  # the minimum exceeds a greedy count
                bad_floor += 1
                continue
            if lg != oracles.brute_lgpal(w) or rg != oracles.brute_rgpal(w):
                bad_greedy += 1
            # the forward series-link walk shares no step with gap_witness's
            # right-greedy pass over the reversal
            if lg != (lgpal_profile(w)[-1] if w else 0):
                bad_dual += 1
    result.claims.append(
        _eq_claim("minimum <= both greedy counts on all binary words up to "
                  "length 12", 0, bad_floor)
    )
    result.claims.append(
        _eq_claim("greedy counts match the scanning reference", 0, bad_greedy)
    )
    result.claims.append(
        _eq_claim("left-greedy equals right-greedy of the reversal", 0, bad_dual)
    )
    rng = random.Random(seed)
    bad = 0
    for _ in range(200):
        w = _random_word(rng, 250, rng.choice((2, 3, 4)))
        try:
            lg = gap_witness(w)[1]
        except RuntimeError:
            bad += 1
            continue
        if lg != (lgpal_profile(w)[-1] if w else 0):
            bad += 1
    result.claims.append(
        _eq_claim("same properties on 200 random words up to length 250", 0, bad)
    )
    return result


# Heaviest first, the order in which run_suites hands suites to its workers.
# Median in-process times over seeds 0-4 on a 2-vCPU x86 host, Python 3.11.7:
# greedy 558 ms, oracles 557, gaps 259, lps 251, bound2 77, nextsets 42,
# evperiodic 39, uword 38, ladder 34, floors 17, multibonacci 11, occdiff 4.
SUITES: dict[str, Callable[..., ExperimentResult]] = {
    "greedy": lambda seed=0: greedy_suite(seed),
    "oracles": lambda seed=0: oracles_suite(seed),
    "gaps": lambda seed=0: gap_suite(),
    "lps": lambda seed=0: lps_suite(seed),
    "bound2": lambda seed=0: bound2_suite(),
    "nextsets": lambda seed=0: next_sets_suite(),
    "evperiodic": lambda seed=0: eventually_periodic_suite(),
    "uword": lambda seed=0: verify_u_suffixes(),
    "ladder": lambda seed=0: ladder_experiment(),
    "floors": lambda seed=0: prefix_floor_experiment(),
    "multibonacci": lambda seed=0: verify_multibonacci(),
    "occdiff": lambda seed=0: verify_occurrence_balance(),
}

EXPERIMENTS = ("occdiff", "uword", "multibonacci", "ladder", "floors")


def _run_suite(name: str, seed) -> ExperimentResult:
    """Run one registered suite and time it where it runs.  A suite that
    raises reports one failed claim naming the exception, so the other
    suites still report; running out of memory is not a claim."""
    t0 = time.perf_counter()
    try:
        result = SUITES[name](seed=seed)
    except MemoryError:
        raise
    except Exception as exc:
        result = ExperimentResult(name, {}, [Claim(
            "suite runs to completion", "no exception",
            f"{type(exc).__name__}: {exc}", "fail")])
    result.runtime = time.perf_counter() - t0
    return result


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suites(names: Iterable[str], seed: int = 0) -> list[ExperimentResult]:
    """Run suites by name and return their results in name order.

    The suites share no state, so with more than one usable CPU they run on
    a pool of forked worker processes, one per CPU (at most one per suite),
    handed out heaviest first in ``SUITES`` order.  With one worker, where
    ``fork`` is not offered, or when the caller runs other threads, they run
    in this process.  Each suite is timed inside the process that runs it.
    A suite that raises reports a failed claim (see ``_run_suite``), a
    ``MemoryError`` reaches the caller as raised, and a worker that dies
    raises ``WorkerDied``.
    """
    chosen = set(names)
    unknown = sorted(chosen.difference(SUITES))
    if unknown:
        raise ValueError(f"unknown suite names: {', '.join(unknown)}")
    tasks = [name for name in SUITES if name in chosen]
    workers = min(_usable_cpus(), len(tasks))
    fork = None
    # fork copies only the calling thread, so a lock another thread holds
    # would stay held in the workers
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing  # deferred: CLI start-up does not pay for it

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    if fork is None:
        results = [_run_suite(name, seed) for name in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            futures = [pool.submit(_run_suite, name, seed) for name in tasks]
            try:
                results = [f.result() for f in futures]
            except BrokenProcessPool as exc:
                lost = [name for name, f in zip(tasks, futures)
                        if isinstance(f.exception(), BrokenProcessPool)]
                raise WorkerDied(f"a suite worker process died before "
                                 f"{', '.join(sorted(lost))} finished: {exc}") from None
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    by_name = dict(zip(tasks, results))
    return [by_name[name] for name in sorted(by_name)]
