"""Reference implementations used to cross-check the fast code paths.

Everything here works by definition-level scanning (over slices, or by
expanding around every center) and shares no code with the eertree; that
independence is the point.  Complexity is quadratic or worse in the worst
case, so callers keep inputs at test scale.
"""

from __future__ import annotations

from typing import Sequence


def _as_bytes_or_tuple(w: Sequence[int]):
    t = tuple(w)
    if t and max(t) < 256:
        return bytes(t)
    return t


def brute_pal_table(w: Sequence[int]) -> list[int]:
    """Minimum palindromic factor count per prefix, by the definition:
    ``values[i]`` is one more than the least ``values[j]`` over every
    palindrome ``w[j:i]`` that could end the factorization.

    The palindromes come from ``brute_palindromic_spans``, bucketed by end,
    so the cost is O(n + number of palindromic factor occurrences): about
    linear on random words, but still quadratic on unary words (a^1000 has
    about 500 000 of them and takes about 0.25 s, ten times the cost of
    scanning every cut).
    """
    n = len(w)
    starts: list[list[int]] = [[] for _ in range(n + 1)]
    for s, e in brute_palindromic_spans(w):
        starts[e].append(s - 1)
    values = [0] * (n + 1)
    for i in range(1, n + 1):
        values[i] = 1 + min(map(values.__getitem__, starts[i]))
    return values


def brute_palindromic_spans(w: Sequence[int]) -> list[tuple[int, int]]:
    """All palindromic (start, end) spans, 1-based inclusive, by expanding
    around every center."""
    n = len(w)
    spans = []
    for center in range(n):
        i, j = center, center
        while i >= 0 and j < n and w[i] == w[j]:
            spans.append((i + 1, j + 1))
            i -= 1
            j += 1
        i, j = center, center + 1
        while i >= 0 and j < n and w[i] == w[j]:
            spans.append((i + 1, j + 1))
            i -= 1
            j += 1
    return spans


def brute_lps_array(w: Sequence[int]) -> list[int]:
    """Longest palindromic suffix length per position, from the span list."""
    n = len(w)
    lps = [0] * n
    for start, end in brute_palindromic_spans(w):
        length = end - start + 1
        if length > lps[end - 1]:
            lps[end - 1] = length
    return lps


def brute_distinct_palindromes(w: Sequence[int]) -> set:
    """Set of distinct nonempty palindromic factors."""
    s = tuple(w)
    out = set()
    for i in range(len(s)):
        for j in range(i + 1, len(s) + 1):
            seg = s[i:j]
            if seg == seg[::-1]:
                out.add(seg)
    return out


def brute_lgpal(w: Sequence[int]) -> int:
    """Left-greedy factor count by scanning prefixes from the long end."""
    s = _as_bytes_or_tuple(w)
    count = 0
    i = 0
    n = len(s)
    while i < n:
        for ell in range(n - i, 0, -1):
            seg = s[i : i + ell]
            if seg == seg[::-1]:
                i += ell
                break
        count += 1
    return count


def brute_rgpal(w: Sequence[int]) -> int:
    s = _as_bytes_or_tuple(w)
    return brute_lgpal(s[::-1])


def brute_palindromic_prefix_lengths(w: Sequence[int]) -> list[int]:
    s = tuple(w)
    return [ell for ell in range(1, len(s) + 1) if s[:ell] == s[:ell][::-1]]
