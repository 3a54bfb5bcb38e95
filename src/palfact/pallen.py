"""Minimum number of palindromic factors: tables, factorizations, first hits.

``pal_dp`` is the reference implementation (direct minimization over every
palindromic suffix); ``pal_fast`` produces the same table through the
series-link recurrence in O(n log n).  The two are kept as independent code
paths on purpose so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def validate(self, w: Sequence[int]) -> None:
        t = tuple(w)
        expect = 1
        for start, end in self.spans:
            if start != expect or end < start:
                raise ValueError(f"spans do not tile the word: {self.spans}")
            f = t[start - 1 : end]
            if f != f[::-1]:
                raise ValueError(f"span {start}-{end} is not a palindrome")
            expect = end + 1
        if expect != len(t) + 1:
            raise ValueError("spans do not cover the whole word")

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


def _palindromic_spans_by_start(w: Sequence[int]) -> list[list[int]]:
    """ends[start] = ascending end positions of palindromes starting there
    (1-based), found by center expansion."""
    n = len(w)
    by_start: list[list[int]] = [[] for _ in range(n + 2)]
    for center in range(n):
        # odd lengths
        i, j = center, center
        while i >= 0 and j < n and w[i] == w[j]:
            by_start[i + 1].append(j + 1)
            i -= 1
            j += 1
        # even lengths
        i, j = center, center + 1
        while i >= 0 and j < n and w[i] == w[j]:
            by_start[i + 1].append(j + 1)
            i -= 1
            j += 1
    for ends in by_start:
        ends.sort()
    return by_start


def minimal_factorizations(w: Sequence[int], limit: int = 100) -> MinimalFactorizations:
    """Enumerate every decomposition of ``w`` into exactly the minimum
    number of palindromes, up to ``limit`` many.

    In a minimum decomposition with cut positions 0 = c0 < ... < ck = n,
    every prefix value obeys values[c_t] = t, which drives the backtracking.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    word = Word(w)
    n = len(word)
    total, table = pal_fast(word)
    if n == 0:
        return MinimalFactorizations(word, 0, (Decomposition(()),), False)
    values = table.values
    by_start = _palindromic_spans_by_start(tuple(word))
    found: list[Decomposition] = []
    truncated = False
    # Depth-first over cuts with an explicit stack (a minimum decomposition
    # can have thousands of factors): frame t holds cut c_t and the ends
    # still to try from it; acc[t] is the span chosen out of frame t.
    acc: list[tuple[int, int]] = []
    stack = [(0, iter(by_start[1]))]
    while stack:
        cut, ends = stack[-1]
        target = values[cut] + 1
        for end in ends:
            if values[end] == target:
                break
        else:
            stack.pop()
            if acc:
                acc.pop()
            continue
        acc.append((cut + 1, end))
        if end < n:
            stack.append((end, iter(by_start[end + 1])))
            continue
        found.append(Decomposition(tuple(acc)))
        acc.pop()
        if len(found) >= limit:
            # A further decomposition may or may not exist; flag conservatively.
            truncated = True
            break
    for d in found:
        d.validate(word)
    return MinimalFactorizations(word, total, tuple(found), truncated)


def first_attainment(stream, k_max: int, horizon: int) -> dict[int, int | None]:
    """m(k): least prefix length whose minimum factor count is exactly k.

    Returns a map k -> length for 1 <= k <= k_max, with None when no prefix
    within the horizon attains the value.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    w = materialize(stream, horizon)
    idx = PalindromeIndex(w, track_min=True)
    dp = idx.min_factors
    out: dict[int, int | None] = {k: None for k in range(1, k_max + 1)}
    remaining = k_max
    for i in range(1, len(dp)):
        v = dp[i]
        if v <= k_max and out[v] is None:
            out[v] = i
            remaining -= 1
            if not remaining:
                break
    return out
