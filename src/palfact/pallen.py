"""Minimum number of palindromic factors: tables, factorizations, first hits.

``pal_dp`` is the reference implementation (direct minimization over every
palindromic suffix); ``pal_fast`` produces the same table through the
series-link recurrence in O(n log n).  The two are kept as independent code
paths on purpose so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, le, sub
from typing import Sequence

from .eertree import PalindromeIndex
from .streams import materialize
from .words import Word


@dataclass(frozen=True)
class PalPrefixTable:
    """values[i] = minimum palindromic factor count of the length-i prefix."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def to_csv(self) -> str:
        lines = ["n,pal"]
        lines.extend(f"{i},{v}" for i, v in enumerate(self.values) if i > 0)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Decomposition:
    """Ordered palindromic spans tiling a word; 1-based inclusive bounds."""

    spans: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.spans)

    def validate(self, w: Sequence[int], proved: set | None = None) -> None:
        """Raise ValueError unless the spans tile ``w`` with palindromes.

        ``proved`` holds spans already shown to be palindromes of this same
        ``w``; the spans this call proves join it, so checking many
        decompositions of one word tests each distinct span once.
        """
        t = w if type(w) is tuple else tuple(w)
        spans = self.spans
        starts = list(map(itemgetter(0), spans))
        ends = list(map(itemgetter(1), spans))
        # the first span starts at 1, every other one right after the one
        # before it ends, and none ends before it starts
        if spans and (starts[0] != 1
                      or list(map(sub, starts[1:], ends)) != [1] * (len(ends) - 1)
                      or not all(map(le, starts, ends))):
            raise ValueError(f"spans do not tile the word: {self.spans}")
        if (ends[-1] if ends else 0) != len(t):
            raise ValueError("spans do not cover the whole word")
        if proved is None:
            proved = set()
        if not proved.issuperset(spans):
            fresh = set(spans).difference(proved)
            for start, end in fresh:
                f = t[start - 1 : end]
                if f != f[::-1]:
                    raise ValueError(f"span {start}-{end} is not a palindrome")
            proved.update(fresh)

    def factors(self, w: Sequence[int]) -> list[Word]:
        word = w if isinstance(w, Word) else Word(w)
        return [word[s - 1 : e] for s, e in self.spans]

    def to_json(self) -> tuple[tuple[int, int], ...]:
        """The spans themselves: JSON writes tuples as arrays, and copying
        them into lists would cost a list per span."""
        return self.spans


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


@dataclass(frozen=True)
class MinimalFactorizations:
    """All decompositions into the minimum number of palindromes.

    ``decompositions`` is in lexicographic order of span-start sequences;
    ``truncated`` is set when enumeration stopped at the requested limit.
    """

    word: Word
    count: int
    decompositions: tuple[Decomposition, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.decompositions)

    def __len__(self):
        return len(self.decompositions)

    def to_json(self) -> dict:
        return {
            "pal": self.count,
            "decompositions": [d.to_json() for d in self.decompositions],
            "truncated": self.truncated,
        }


def minimal_factorizations(w: Sequence[int], limit: int = 100) -> MinimalFactorizations:
    """Enumerate every decomposition of ``w`` into exactly the minimum
    number of palindromes, up to ``limit`` many.

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
    word = Word(w)
    n = len(word)
    total, table = pal_fast(word)
    if n == 0:
        return MinimalFactorizations(word, 0, (Decomposition(()),), False)
    symbols = tuple(word)
    values = table.values
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
    proved: set[tuple[int, int]] = set()
    for d in found:
        d.validate(symbols, proved)
    return MinimalFactorizations(word, total, tuple(found), truncated)


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
