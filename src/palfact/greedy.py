"""Left- and right-greedy palindromic factorizations.

The right-greedy count strips the longest palindromic suffix until nothing
is left; with the per-position longest-palindromic-suffix array this is a
single O(n) loop, and rg[i] = rg[i - lps[i-1]] + 1 gives every prefix at
once.  The left-greedy count of one word is the right-greedy count of the
reversal, with spans mirrored back.  The left-greedy count of every prefix
comes from ``PalindromeIndex(..., track_left=True)``, which tracks it in
the minimum-factor series-link walk of the same forward index, O(log n) per
symbol, so a profile of both sides costs one index build.
"""

from __future__ import annotations

from typing import Sequence

from .eertree import PalindromeIndex
from .words import Decomposition, Word


def _right_greedy_spans(lps: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Right-greedy spans of the whole word whose longest-palindromic-suffix
    array is ``lps``."""
    spans = []
    i = len(lps)
    while i > 0:
        s = lps[i - 1]
        spans.append((i - s + 1, i))
        i -= s
    spans.reverse()
    return tuple(spans)


def _right_greedy_count(lps: Sequence[int]) -> int:
    """Number of right-greedy factors of the whole word whose
    longest-palindromic-suffix array is ``lps``; ``_right_greedy_spans``
    without building the spans."""
    k = 0
    i = len(lps)
    while i > 0:
        i -= lps[i - 1]
        k += 1
    return k


def _left_greedy_spans(rev_lps: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Left-greedy spans of the whole word whose reversal has the
    longest-palindromic-suffix array ``rev_lps``: the reversal's right-greedy
    spans, mirrored."""
    n = len(rev_lps)
    return tuple((n - e + 1, n - s + 1) for s, e in reversed(_right_greedy_spans(rev_lps)))


def rgpal(w: Sequence[int]) -> tuple[int, Decomposition]:
    """Right-greedy palindromic factor count and its decomposition."""
    spans = _right_greedy_spans(PalindromeIndex(w).lps)
    return len(spans), Decomposition(spans)


def lgpal(w: Sequence[int]) -> tuple[int, Decomposition]:
    """Left-greedy palindromic factor count and its decomposition."""
    spans = _left_greedy_spans(PalindromeIndex(w[::-1]).lps)
    return len(spans), Decomposition(spans)


def gap_witness(w: Sequence[int]) -> tuple[int, int, int]:
    """(minimum, left-greedy, right-greedy) factor counts of one word.

    The minimum never exceeds either greedy count; a violation would be an
    internal error, so it raises instead of returning.  A non-empty
    palindrome is its own longest palindromic prefix and suffix, so all three
    counts are 1 and no index is built.  Any other word takes two index
    builds: reversal keeps the minimum and turns the left-greedy count into
    the right-greedy one, so one ``track_min`` index of the reversal gives
    both.
    """
    mirrored = w[::-1]
    if mirrored == w and w:
        return 1, 1, 1
    rev = PalindromeIndex(mirrored, track_min=True)
    p, lg = rev.min_factors[-1], _right_greedy_count(rev.lps)
    del rev, mirrored  # one index alive at a time: on rich words each is large
    rg = _right_greedy_count(PalindromeIndex(w).lps)
    if p > min(lg, rg):
        raise RuntimeError(
            f"greedy counts ({lg}, {rg}) undercut the minimum {p} on {Word(w)}"
        )
    return p, lg, rg


def running_max(values: list[int]) -> list[int]:
    out = []
    best = 0
    for v in values:
        if v > best:
            best = v
        out.append(best)
    return out


def right_greedy_counts(lps: Sequence[int]) -> list[int]:
    """Right-greedy count of every prefix from its longest-palindromic-suffix
    array, in one linear pass.

    Stripping the longest palindromic suffix lands on a shorter prefix, so
    rg[i] = rg[i - lps[i-1]] + 1 memoizes the whole strip loop.
    """
    rg = [0] * (len(lps) + 1)
    for i in range(1, len(rg)):
        rg[i] = rg[i - lps[i - 1]] + 1
    return rg[1:]


def rgpal_profile(w: Sequence[int]) -> list[int]:
    """Right-greedy count of every prefix, in one linear pass."""
    return right_greedy_counts(PalindromeIndex(w).lps)


def lgpal_profile(w: Sequence[int]) -> list[int]:
    """Left-greedy count of every prefix, in O(n log n) on one forward index.

    See ``PalindromeIndex.left_greedy_counts``.  A random binary word of
    length 10**6 takes 0.7-0.9 s and the Fibonacci word 5.2-6.5 s, build
    included (2-vCPU x86, Python 3.11).
    """
    return PalindromeIndex(w, track_min=True, track_left=True).left_greedy_counts()


def greedy_profile(stream, horizon: int):
    """Left- and right-greedy counts for every prefix up to the horizon: the
    ``PrefixProfile`` of ``build_profile``, from one index."""
    from .profiles import build_profile  # profiles imports this module

    return build_profile(stream, horizon)
