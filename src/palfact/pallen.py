"""Minimum number of palindromic factors: tables, factorizations, first hits.

``pal_dp`` is the reference implementation (direct minimization over every
palindromic suffix); ``pal_fast`` produces the same table through the
series-link recurrence in O(n log n).  The two are kept as independent code
paths on purpose so each can check the other.
"""

from __future__ import annotations

from typing import Sequence

from .eertree import PalindromeIndex
from .greedy import _left_greedy_spans, _right_greedy_spans
from .streams import materialize
from .words import Decomposition, Word


class PalPrefixTable:
    """values[i] = minimum palindromic factor count of the length-i prefix."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self.values = values

    def __len__(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def pal_dp(w: Sequence[int]) -> tuple[int, PalPrefixTable]:
    """Minimum palindromic factor count by direct minimization.

    For each position the candidates are exactly the palindromic suffixes
    ending there, enumerated along the suffix-link chain.
    """
    idx = PalindromeIndex(w)
    n = len(w)
    values = [0] * (n + 1)
    for i in range(1, n + 1):
        best = i
        for s in idx.suffix_palindrome_lengths(i):
            c = values[i - s]
            if c < best:
                best = c
        values[i] = best + 1
    return values[n], PalPrefixTable(tuple(values))


def pal_fast(w: Sequence[int]) -> tuple[int, PalPrefixTable]:
    """Same contract as ``pal_dp`` via the series-link recurrence."""
    idx = PalindromeIndex(w, track_min=True)
    values = tuple(idx.min_factors)
    return values[-1], PalPrefixTable(values)


class MinimalFactorizations:
    """All decompositions into the minimum number of palindromes, with the
    word's left- and right-greedy decompositions.

    ``decompositions`` is in lexicographic order of span-start sequences;
    ``truncated`` is set when enumeration stopped at the requested limit.
    """

    __slots__ = ("word", "count", "decompositions", "truncated", "left_greedy",
                 "right_greedy")

    def __init__(self, word: Word, count: int,
                 decompositions: tuple[Decomposition, ...], truncated: bool,
                 left_greedy: Decomposition, right_greedy: Decomposition):
        self.word = word
        self.count = count
        self.decompositions = decompositions
        self.truncated = truncated
        self.left_greedy = left_greedy
        self.right_greedy = right_greedy

    def __iter__(self):
        return iter(self.decompositions)

    def __len__(self):
        return len(self.decompositions)

    def to_json(self) -> dict:
        """The minimal decompositions; each is its spans themselves, since
        JSON writes tuples as arrays and copying them into lists would cost a
        list per span."""
        return {
            "pal": self.count,
            "decompositions": [d.spans for d in self.decompositions],
            "truncated": self.truncated,
        }


def minimal_factorizations(w: Sequence[int], limit: int = 100) -> MinimalFactorizations:
    """Enumerate every decomposition of ``w`` into exactly the minimum
    number of palindromes, up to ``limit`` many, and read the left- and
    right-greedy decompositions from the same two indices.

    In a minimum decomposition with cut positions 0 = c0 < ... < ck = n,
    every prefix value obeys values[c_t] = t and the suffix after c_t needs
    exactly k - t palindromes.  The search follows only cuts that meet both,
    so every branch it enters ends in a decomposition.  Beyond two index
    builds, its cost is the size of what it reports plus, for each cut it
    reaches, the palindromes starting there.  Each distinct span is one
    tuple object and is checked to be a palindrome once.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    word = w if isinstance(w, Word) else Word(w)
    if not word:
        empty = Decomposition(())
        return MinimalFactorizations(word, 0, (empty,), False, empty, empty)
    symbols = tuple(word)
    n = len(symbols)
    # one index alive at a time: on rich words each is large
    fwd = PalindromeIndex(symbols, track_min=True)
    values = fwd.min_factors
    right_spans = _right_greedy_spans(fwd.lps)
    del fwd
    total = values[-1]
    # rest[c] = minimum count of w[c:], from the reversal's prefix table
    rev = PalindromeIndex(symbols[::-1], track_min=True)
    rest = rev.min_factors[::-1]
    # level[c] = values[c] when cut c lies on some minimum decomposition, else -1
    level = [v if v + r == total else -1 for v, r in zip(values, rest)]
    # after[c]: ascending ends e of the palindromes w[c:e] that a minimum
    # decomposition can go on with, listed when the search first reaches c
    after: list[list[int] | None] = [None] * n

    def next_cuts(cut: int):
        ends = after[cut]
        if ends is None:
            # the palindromic prefixes of w[cut:] are the palindromic
            # suffixes of the reversal's prefix of length n - cut
            target = values[cut] + 1
            ends = [e for e in map(cut.__add__, rev.suffix_palindrome_lengths(n - cut))
                    if level[e] == target]
            ends.reverse()
            after[cut] = ends
        return iter(ends)

    found: list[Decomposition] = []
    truncated = False
    spans: dict[tuple[int, int], tuple[int, int]] = {}  # one object per span
    # Depth-first over cuts with an explicit stack (a minimum decomposition
    # can have thousands of factors): frame t holds cut c_t and the ends
    # still to try from it; acc[t] is the span chosen out of frame t.
    acc: list[tuple[int, int]] = []
    stack = [(0, next_cuts(0))]
    while stack:
        cut, ends = stack[-1]
        end = next(ends, None)
        if end is None:
            stack.pop()
            if acc:
                acc.pop()
            continue
        span = (cut + 1, end)
        acc.append(spans.setdefault(span, span))
        if end < n:
            stack.append((end, next_cuts(end)))
            continue
        found.append(Decomposition(tuple(acc)))
        acc.pop()
        if len(found) >= limit:
            # A further decomposition may or may not exist; flag conservatively.
            truncated = True
            break
    left = Decomposition(_left_greedy_spans(rev.lps))
    right = Decomposition(right_spans)
    proved: set[tuple[int, int]] = set()
    for d in (*found, left, right):
        d.validate(symbols, proved)
    return MinimalFactorizations(word, total, tuple(found), truncated, left, right)


def first_attainment(stream, k_max: int, horizon: int) -> dict[int, int | None]:
    """m(k): least prefix length whose minimum factor count is exactly k.

    Returns a map k -> length for 1 <= k <= k_max, with None when no prefix
    within the horizon attains the value.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    dp = PalindromeIndex(materialize(stream, horizon), track_min=True).min_factors
    return _first_hits(dp[1:], k_max)


def _first_hits(counts: Sequence[int], k_max: int) -> dict[int, int | None]:
    """m(k) for 1 <= k <= k_max from the minimum factor counts of the
    prefixes of length 1, 2, ... in order; shared with ``build_profile``."""
    out: dict[int, int | None] = dict.fromkeys(range(1, k_max + 1))
    remaining = k_max
    for n, v in enumerate(counts, 1):
        if v <= k_max and out[v] is None:
            out[v] = n
            remaining -= 1
            if not remaining:
                break
    return out
