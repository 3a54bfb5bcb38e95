"""Bounded-prefix analysis: bound reports, next-palindrome
enumeration over the binary alphabet, and closed-form classification of
streams whose prefixes stay within two palindromic factors.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .eertree import PalindromeIndex, SharedEertree
from .engine import (gap_sequence, palindromic_prefix_lengths,
                     product_of_two_palindromes)
from .errors import AmbiguousHorizon
from .pallen import pal_dp
from .streams import EventuallyPeriodic, InfiniteWord, Periodic, materialize, spec_of
from .words import Word, failure_table, is_palindrome


def _windowed_factor_max(w: Sequence[int], window: int) -> int:
    """Max factor count over all factors of length <= window ending in w.

    Windows with identical content are computed once, which collapses the
    scan for periodic streams.
    """
    t = tuple(w)
    n = len(t)
    best = 0
    seen = set()
    for i in range(n):
        chunk = t[i : i + window]
        if chunk in seen:
            continue
        seen.add(chunk)
        dp = PalindromeIndex(chunk, track_min=True).min_factors
        m = max(dp[1:], default=0)
        if m > best:
            best = m
    return best


class BoundReport:
    """Finite-horizon evidence about prefix/factor factor-count bounds.

    ``factor_max`` ranges only over factors of length <= ``factor_window``,
    so it is evidence, never a decision procedure.
    """

    __slots__ = ("word_spec", "horizon", "factor_window", "prefix_max",
                 "factor_max", "verdicts")

    def __init__(self, word_spec: str, horizon: int, factor_window: int,
                 prefix_max: int, factor_max: int,
                 verdicts: dict[str, str] | None = None):
        self.word_spec = word_spec
        self.horizon = horizon
        self.factor_window = factor_window
        self.prefix_max = prefix_max
        self.factor_max = factor_max
        self.verdicts = {} if verdicts is None else verdicts

    def to_json(self) -> dict:
        return {
            "word": self.word_spec,
            "horizon": self.horizon,
            "factor_window": self.factor_window,
            "prefix_max": self.prefix_max,
            "factor_max": self.factor_max,
            "verdicts": dict(self.verdicts),
        }


def _prefix_statistics(w: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Prefix maximum of the minimum factor count and the palindromic-prefix
    lengths of ``w``, both from one ``track_min`` index."""
    idx = PalindromeIndex(w, track_min=True)
    return max(idx.min_factors[1:], default=0), palindromic_prefix_lengths(idx.lps)


def _infinitely_many_palindromic_prefixes(head: Sequence[int],
                                          period: Sequence[int]) -> bool:
    """Whether the stream head period^w has infinitely many palindromic
    prefixes.

    u v^w with u ending in v's last letter is u minus that letter, then v
    rotated by one, repeated; shortening so leaves the least head.  A
    stream with a nonempty least head has finitely many palindromic
    prefixes (the ``evperiodic`` suite checks this), and r^w with r
    primitive has infinitely many exactly when r is a product of two
    palindromes.
    """
    head, period = tuple(head), tuple(period)
    while head and head[-1] == period[-1]:
        head, period = head[:-1], period[-1:] + period[:-1]
    if head:
        return False
    p = _minimal_full_period(period)
    root = period[:p] if len(period) % p == 0 else period
    return product_of_two_palindromes(root) is not None


def _binary_rule(source, w: Sequence[int], prefix_max: int,
                 pp: Sequence[int]) -> str:
    """Frid, Puzynina and Zamboni's rule: a stream with infinitely many
    palindromic prefixes whose every prefix is a product of at most two
    palindromes is over at most two letters.

    A finite word, or a prefix maximum above 2 within the horizon, is
    ``inapplicable``.  Periodic and eventually periodic streams decide the
    first hypothesis from their spec; other streams take three palindromic
    prefixes within the horizon (``pp``) as a stand-in.  A third letter is
    ``horizon-limited``: a prefix past the horizon may need three palindromes.
    """
    if not isinstance(source, InfiniteWord) or prefix_max > 2:
        return "inapplicable"
    letters = set(w)
    if isinstance(source, (Periodic, EventuallyPeriodic)):
        head = getattr(source, "head", ())
        letters.update(head, source.period)
        if not _infinitely_many_palindromic_prefixes(head, source.period):
            return "inapplicable"
    elif len(pp) < 3:
        return "inapplicable"
    return "pass" if len(letters) <= 2 else "horizon-limited"


def bound_report(stream, horizon: int, factor_window: int = 100) -> BoundReport:
    """Prefix and windowed-factor maxima of the minimum factor count."""
    if factor_window < 0:
        raise ValueError("factor_window must be >= 0")
    if factor_window > horizon:
        raise ValueError("factor_window must not exceed the horizon")
    w = materialize(stream, horizon)
    prefix_max, pp = _prefix_statistics(w)
    factor_max = _windowed_factor_max(w, factor_window)
    verdicts = {
        "bounded_by_2_implies_binary": _binary_rule(stream, w, prefix_max, pp),
        "prefix_gap_monotone": (("pass" if gap_sequence(pp).monotone else "fail")
                                if len(pp) >= 3 else "inapplicable"),
    }
    return BoundReport(spec_of(stream), len(w), factor_window, prefix_max, factor_max, verdicts)


def alphabet_bound_check(stream, horizon: int) -> str:
    """The binary-alphabet rule of ``bound_report`` on its own."""
    w = materialize(stream, horizon)
    return _binary_rule(stream, w, *_prefix_statistics(w))


# --------------------------------------------------------------------------
# Next-palindrome enumeration over {a, b}
# --------------------------------------------------------------------------


class NextSet:
    """Palindromes properly extending ``base`` such that every proper
    palindromic prefix is a prefix of ``base`` and every prefix decomposes
    into at most two palindromes.

    ``open_branches`` lists prefixes still extendable at ``max_len``; an
    empty result is only conclusive when it is empty as well.
    """

    __slots__ = ("base", "max_len", "palindromes", "open_branches")

    def __init__(self, base: Word, max_len: int, palindromes: tuple[Word, ...],
                 open_branches: tuple[Word, ...]):
        self.base = base
        self.max_len = max_len
        self.palindromes = palindromes
        self.open_branches = open_branches

    def __iter__(self):
        return iter(self.palindromes)

    def __len__(self):
        return len(self.palindromes)


def enumerate_next(u: Sequence[int], max_len: int) -> NextSet:
    """Exhaustive search for the palindromes extending ``u`` (see NextSet).

    From a word x = y c^m (the run c^m maximal) the search visits the side
    branch x d first, d the other letter, then the spine x c.  Two closure
    rules let unary tails terminate instead of running to the cap, so that
    genuinely empty results come back with zero open branches:

    * run-domination: when the final run is longer than every earlier c-run
      of x (every c-run of y), no completion x c^t can be a palindrome, and
      the sole extra palindromic suffix of any x c^j d is d c^(m+j) d; when
      y minus its final symbol needs at least two factors, every such side
      branch needs three, so the whole tail is barren.
    * spine stabilization: once the run exceeds the length of y plus all
      the room left below the cap, palindromic suffixes of any continuation
      anchor at run-independent positions, so the side subtree repeats
      verbatim at every deeper run length; if one side subtree is fully
      explored with no member and no open branch, the tail is closed.

    The search runs on an explicit stack, so its depth is bounded by
    ``max_len`` alone.
    """
    base = Word(u)
    if not base:
        raise ValueError("the base word must be nonempty")
    if max_len < len(base):
        raise ValueError("max_len must be at least the base length")
    if any(s not in (0, 1) for s in base):
        raise ValueError("next-set enumeration is defined over the binary alphabet")

    tree = SharedEertree()
    push = tree.push
    truncate = tree.truncate
    word = tree.word
    nodes = tree.nodes
    dp = tree.dp
    lens = tree.lens
    # runs[n]: (final run, longest earlier 0-run, longest earlier 1-run) of
    # the length-n prefix, where the earlier runs are all but the final one
    runs: list[tuple[int, int, int]] = [(0, 0, 0)]

    def grow(c: int) -> int:
        val = push(c)
        r, m0, m1 = runs[-1]
        if word[-2] == c:  # word[0] is a sentinel, equal to no symbol
            runs.append((r + 1, m0, m1))
        elif c:  # a 1-run opens after a 0-run
            runs.append((1, max(m0, r), m1))
        else:
            runs.append((1, m0, max(m1, r)))
        return val

    for c in base:
        if grow(c) > 2:  # a prefix of the base already needs three factors
            return NextSet(base, max_len, (), ())
    base_len = len(base)
    if base_len == max_len:  # the base itself sits at the cap, unexplored
        return NextSet(base, max_len, (), (base,))

    members: list[Word] = []
    opens: list[Word] = []
    # One frame per word whose side branch is under way: (its length, spine
    # closed by run-domination, members plus open branches before the side).
    frames: list[tuple[int, bool, int]] = []
    length = base_len
    explore = True
    while True:
        if explore:
            run, m0, m1 = runs[length]
            c = word[-1]
            closed = (
                dp[length] == 2
                and run < length
                and run > (m1 if c else m0)
                and dp[length - run - 1] >= 2
            )
            frames.append((length, closed, len(members) + len(opens)))
            c = 1 - c
        elif frames:
            length, closed, found = frames.pop()
            truncate(length)
            del runs[length + 1 :]
            if closed:
                continue
            run = runs[length][0]
            if (
                dp[length] == 2
                and run > max_len - run  # |y| plus the room below the cap
                and len(members) + len(opens) == found
            ):
                continue  # spine stabilization
            c = word[-1]
        else:
            break
        val = grow(c)
        length += 1
        explore = False
        if val > 2:
            continue
        # the search appends only 0 and 1, so the words need no symbol check
        if lens[nodes[-1]] == length:
            if length > base_len:
                members.append(tuple.__new__(Word, word[1:]))
        elif length == max_len:
            opens.append(tuple.__new__(Word, word[1:]))
        else:
            explore = True
    members.sort(key=lambda w: (len(w), w))
    opens.sort(key=lambda w: (len(w), w))
    return NextSet(base, max_len, tuple(members), tuple(opens))


def validate_next_member(u: Sequence[int], pi: Sequence[int]) -> bool:
    """Re-check the three membership conditions directly, independently of
    the enumeration's pruning."""
    base = tuple(u)
    cand = tuple(pi)
    if not is_palindrome(cand):
        return False
    if len(cand) <= len(base) or cand[: len(base)] != base:
        return False
    for ell in range(1, len(cand)):
        if is_palindrome(cand[:ell]) and ell > len(base):
            return False
    _, table = pal_dp(cand)
    return all(v <= 2 for v in table.values[1:])


# --------------------------------------------------------------------------
# Closed forms of the nine next-set families
# --------------------------------------------------------------------------

_A, _B = 0, 1


def _w(*parts) -> Word:
    out = []
    for p in parts:
        out.extend(p)
    return Word(out)


def _rep(block, k):
    return tuple(block) * k


class ItemVerdict:
    """One parameter choice of one next-set family: the closed form's
    members against the enumeration's."""

    __slots__ = ("item", "params", "base", "expected", "observed", "open_count",
                 "status", "counterexample")

    def __init__(self, item: int, params: dict, base: Word,
                 expected: tuple[Word, ...], observed: tuple[Word, ...],
                 open_count: int, status: str, counterexample: Optional[str] = None):
        self.item = item
        self.params = params
        self.base = base
        self.expected = expected
        self.observed = observed
        self.open_count = open_count
        self.status = status  # "pass" | "fail"
        self.counterexample = counterexample


def _family_members(item: int, i: int, j: int, k: int, alpha: int, cap: int) -> list[Word]:
    a, b = (_A,), (_B,)
    out: list[Word] = []
    if item == 1:
        jj = 1
        while i + jj + i <= cap:
            out.append(_w(a * i, b * jj, a * i))
            jj += 1
        for j2 in range(1, i):
            kk = 1
            while i + kk * (1 + j2) + 1 + i <= cap:
                out.append(_w(a * i, _rep(b + a * j2, kk), b, a * i))
                kk += 1
    elif item in (2, 3, 5):
        pass
    elif item == 4:
        out.append(_w(a * i, _rep(b * j + a * i, k + 1)))
    elif item == 6:
        jj = 1
        while i + 1 + i + jj + 1 + i <= cap:
            out.append(_w(a * i, b, a * (i + jj), b, a * i))
            jj += 1
    elif item == 7:
        out.append(_w(a * i, _rep(b + a * (i + j), k + 1), b, a * i))
    elif item == 8:
        out.append(_w(_rep(a + _rep(b + a, k), 2)))
    elif item == 9:
        out.append(_w(_rep(a + _rep(b + a, k), alpha + 1)))
    return [w for w in out if len(w) <= cap]


def _item_base(item: int, i: int, j: int, k: int, alpha: int) -> Word:
    a, b = (_A,), (_B,)
    if item == 1:
        return _w(a * i, b)
    if item == 2:
        return _w(a * i, _rep(b + a * j, k), b, a * i)
    if item == 3:
        return _w(a * i, _rep(b * j + a * i, k), a)
    if item == 4:
        return _w(a * i, _rep(b * j + a * i, k), b)
    if item == 5:
        return _w(a * i, _rep(b + a * i, k), a)
    if item == 6:
        return _w(a * i, b, a * (i + 1))
    if item == 7:
        return _w(a * i, _rep(b + a * (i + j), k), b, a * i)
    if item == 8:
        return _w(a, _rep(b + a, k), a)
    if item == 9:
        return _w(_rep(a + _rep(b + a, k), alpha))
    raise ValueError(f"unknown item {item}")


EMPTY_ITEMS = frozenset({2, 3, 5})


def _item_grid(item: int, i_max: int, j_max: int, k_max: int):
    if item == 1:
        for i in range(1, i_max + 1):
            yield {"i": i}
    elif item == 2:
        for i in range(2, i_max + 1):
            for j in range(1, min(j_max, i - 1) + 1):
                for k in range(1, k_max + 1):
                    yield {"i": i, "j": j, "k": k}
    elif item == 3:
        for i in range(1, i_max + 1):
            for j in range(2, j_max + 1):
                for k in range(1, k_max + 1):
                    yield {"i": i, "j": j, "k": k}
    elif item == 4:
        for i in range(1, i_max + 1):
            for j in range(1, j_max + 1):
                for k in range(1, k_max + 1):
                    yield {"i": i, "j": j, "k": k}
    elif item == 5:
        for i in range(2, i_max + 1):
            for k in range(2, k_max + 1):
                yield {"i": i, "k": k}
    elif item == 6:
        for i in range(1, i_max + 1):
            yield {"i": i}
    elif item == 7:
        for i in range(1, i_max + 1):
            for j in range(1, j_max + 1):
                for k in range(1, k_max + 1):
                    yield {"i": i, "j": j, "k": k}
    elif item == 8:
        for k in range(2, k_max + 1):
            yield {"k": k}
    elif item == 9:
        for k in range(2, k_max + 1):
            for alpha in range(2, k_max + 1):
                yield {"k": k, "alpha": alpha}


def verify_next_closed_forms(
    i_max: int, j_max: int, k_max: int, len_cap: int
) -> list[ItemVerdict]:
    """Compare the next-set enumeration with the nine closed forms over the
    given parameter grid.

    Families with unboundedly many members are compared up to ``len_cap``;
    singleton families must fit under the cap (otherwise the parameters are
    rejected).  Items whose closed form is the empty set additionally demand
    zero open branches, i.e. genuine exhaustion.
    """
    verdicts: list[ItemVerdict] = []
    for item in range(1, 10):
        for params in _item_grid(item, i_max, j_max, k_max):
            i = params.get("i", 1)
            j = params.get("j", 1)
            k = params.get("k", 1)
            alpha = params.get("alpha", 2)
            base = _item_base(item, i, j, k, alpha)
            if len(base) >= len_cap:
                raise ValueError(
                    f"len_cap {len_cap} too small for item {item} at {params}"
                )
            expected = _family_members(item, i, j, k, alpha, len_cap)
            if item in (4, 7, 8, 9) and not expected:
                raise ValueError(
                    f"len_cap {len_cap} does not cover the predicted member of "
                    f"item {item} at {params}"
                )
            ns = enumerate_next(base, len_cap)
            observed = list(ns.palindromes)
            ok = sorted(observed) == sorted(expected)
            counterexample = None
            if not ok:
                extra = sorted(set(observed) - set(expected))
                missing = sorted(set(expected) - set(observed))
                if extra:
                    counterexample = f"unexpected member {extra[0]}"
                elif missing:
                    counterexample = f"missing member {missing[0]}"
            if ok and item in EMPTY_ITEMS and ns.open_branches:
                ok = False
                counterexample = (
                    f"open branch {ns.open_branches[0]} for an empty closed form"
                )
            verdicts.append(
                ItemVerdict(
                    item=item,
                    params=params,
                    base=base,
                    expected=tuple(expected),
                    observed=tuple(observed),
                    open_count=len(ns.open_branches),
                    status="pass" if ok else "fail",
                    counterexample=counterexample,
                )
            )
    return verdicts


# --------------------------------------------------------------------------
# Closed-form classification of two-factor-bounded streams
# --------------------------------------------------------------------------


class Classification:
    """Which closed family (if any) matches the observed periodic structure.

    ``family`` uses shape strings: ``a^w``, ``(a^i b a^j)^w``, ``(a^i b^j)^w``
    or ``((ab)^i a)^w`` with letter-renaming implied by the stream itself.
    ``bplf2`` carries the isolated-letter form parameters (i, j) with
    0 <= i <= j when every factor of the stream fits in two palindromic
    factors by shape.
    """

    __slots__ = ("word_spec", "horizon", "periodic", "period", "family", "params",
                 "bplf2", "report")

    def __init__(self, word_spec: str, horizon: int, periodic: bool,
                 period: Optional[int], family: Optional[str], params: dict,
                 bplf2: Optional[tuple[int, int]], report: BoundReport):
        self.word_spec = word_spec
        self.horizon = horizon
        self.periodic = periodic
        self.period = period
        self.family = family
        self.params = params
        self.bplf2 = bplf2
        self.report = report

    def to_json(self) -> dict:
        return {
            "word": self.word_spec,
            "horizon": self.horizon,
            "periodic": self.periodic,
            "period": self.period,
            "family": self.family,
            "params": dict(self.params),
            "bplf2": list(self.bplf2) if self.bplf2 else None,
            "report": self.report.to_json(),
        }


def _minimal_full_period(w: Sequence[int]) -> int:
    # the longest border of the whole word gives its smallest period
    return len(w) - failure_table(w)[-1] if w else 0


def classify_bound2(stream, horizon: int, factor_window: int = 100,
                    report: Optional[BoundReport] = None) -> Classification:
    """Match the stream's certified period block against the closed families
    of words whose prefixes (or factors) need at most two palindromic
    factors.

    The period must repeat at least three times within the horizon to count
    as certified; two repetitions raise ``AmbiguousHorizon``.  A family match
    is cross-validated against the bound report: a matched family with a
    prefix maximum above 2, or an isolated-letter form with a windowed factor
    maximum above 2, raises immediately.  A caller that already holds the
    stream's ``bound_report`` at this horizon passes it as ``report``.
    """
    w = materialize(stream, horizon)
    n = len(w)
    if n < 3:
        raise AmbiguousHorizon("horizon too short to classify anything")
    if report is None:
        report = bound_report(stream, n, min(factor_window, n))
    p = _minimal_full_period(w)
    if 3 * p > n:
        if 2 * p <= n:
            raise AmbiguousHorizon(
                f"period {p} repeats only twice within horizon {n}; "
                f"use a horizon of at least {3 * p}"
            )
        return Classification(spec_of(stream), n, False, None, None, {}, None, report)

    v = w[:p]
    letters = sorted(set(v))
    family = None
    params: dict = {}
    bplf2 = None
    if len(letters) == 1:
        family = "a^w"
        params = {"a": letters[0]}
    elif len(letters) == 2:
        x = v[0]
        y = letters[0] if letters[0] != x else letters[1]
        count_x = sum(1 for s in v if s == x)
        count_y = p - count_x
        lead = 0
        for s in v:
            if s != x:
                break
            lead += 1
        if count_y == 1:
            # v = x^i y x^j
            i = lead
            j = p - i - 1
            if j >= 1:
                family = "(a^i b a^j)^w"
                params = {"a": x, "b": y, "i": i, "j": j}
            else:
                family = "(a^i b^j)^w"
                params = {"a": x, "b": y, "i": i, "j": 1}
            bplf2 = (i, p - 1)
        elif count_x == 1:
            # v = x y^{p-1}: the initial letter is the isolated one
            family = "(a^i b^j)^w"
            params = {"a": x, "b": y, "i": 1, "j": p - 1}
            bplf2 = (0, p - 1)
        else:
            runs = []
            cur, cnt = v[0], 0
            for s in v:
                if s == cur:
                    cnt += 1
                else:
                    runs.append(cnt)
                    cur, cnt = s, 1
            runs.append(cnt)
            if len(runs) == 2:
                family = "(a^i b^j)^w"
                params = {"a": x, "b": y, "i": runs[0], "j": runs[1]}
            elif all(r == 1 for r in runs) and p % 2 == 1 and p >= 5:
                family = "((ab)^i a)^w"
                params = {"a": x, "b": y, "i": (p - 1) // 2}

    if family is not None and report.prefix_max > 2:
        raise RuntimeError(
            f"family {family} matched but the prefix maximum is "
            f"{report.prefix_max} at horizon {n}"
        )
    if bplf2 is not None and report.factor_max > 2:
        raise RuntimeError(
            f"isolated-letter form matched but the windowed factor maximum is "
            f"{report.factor_max} at horizon {n}"
        )
    return Classification(spec_of(stream), n, True, p, family, params, bplf2, report)
