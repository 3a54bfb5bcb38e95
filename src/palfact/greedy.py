"""Left- and right-greedy palindromic factorizations.

The right-greedy count strips the longest palindromic suffix until nothing
is left; with the per-position longest-palindromic-suffix array this is a
single O(n) loop, and rg[i] = rg[i - lps[i-1]] + 1 gives every prefix at
once.  The left-greedy count of one word is the right-greedy count of the
reversal, with spans mirrored back.  The left-greedy count of every prefix
comes from ``PalindromeIndex.left_greedy_counts``, an O(n log^2 n)
series-link walk over the same forward index, so a profile of both sides
costs one index build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .eertree import PalindromeIndex
from .streams import materialize
from .words import Word, mirror


@dataclass(frozen=True)
class GreedyDecomposition:
    """Unique greedy factorization for one side; spans are 1-based inclusive."""

    side: str  # "left" | "right"
    spans: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.spans)

    def factors(self, w: Sequence[int]) -> list[Word]:
        word = w if isinstance(w, Word) else Word(w)
        return [word[s - 1 : e] for s, e in self.spans]

    def to_json(self) -> dict:
        return {"side": self.side, "spans": [[s, e] for s, e in self.spans]}


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


def rgpal(w: Sequence[int]) -> tuple[int, GreedyDecomposition]:
    """Right-greedy palindromic factor count and its decomposition."""
    spans = _right_greedy_spans(PalindromeIndex(w).lps)
    return len(spans), GreedyDecomposition("right", spans)


def lgpal(w: Sequence[int]) -> tuple[int, GreedyDecomposition]:
    """Left-greedy palindromic factor count and its decomposition."""
    n = len(w)
    k, dec = rgpal(mirror(w))
    spans = tuple((n - e + 1, n - s + 1) for s, e in reversed(dec.spans))
    return k, GreedyDecomposition("left", spans)


def gap_witness(w: Sequence[int]) -> tuple[int, int, int]:
    """(minimum, left-greedy, right-greedy) factor counts of one word.

    The minimum never exceeds either greedy count; a violation would be an
    internal error, so it raises instead of returning.  Two index builds:
    reversal keeps the minimum and turns the left-greedy count into the
    right-greedy one, so one ``track_min`` index of the reversal gives both.
    """
    rev = PalindromeIndex(w[::-1], track_min=True)
    p, lg = rev.min_factors[-1], len(_right_greedy_spans(rev.lps))
    del rev  # one index alive at a time: on rich words each is large
    rg = len(_right_greedy_spans(PalindromeIndex(w).lps))
    if p > min(lg, rg):
        raise RuntimeError(
            f"greedy counts ({lg}, {rg}) undercut the minimum {p} on {Word(w)}"
        )
    return p, lg, rg


@dataclass
class GreedyProfile:
    """Per-prefix greedy counts for prefixes 1..horizon of a stream.

    The left arrays are empty when the profile was built right-side only.
    """

    lgpal: list[int]
    rgpal: list[int]
    max_lgpal: list[int]
    max_rgpal: list[int]

    @property
    def horizon(self) -> int:
        return len(self.rgpal)


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
    """Left-greedy count of every prefix, in O(n log^2 n) on one forward index.

    See ``PalindromeIndex.left_greedy_counts``.  A random binary word of
    length 10**6 takes about 1.8 s, index build included.
    """
    return PalindromeIndex(w).left_greedy_counts()


def greedy_profile(stream, horizon: int, sides: str = "both") -> GreedyProfile:
    """Greedy counts for every prefix up to the horizon, from one index.

    ``sides`` is one of ``both``, ``right``, ``left``; ``right`` skips the
    left-greedy walk (O(n log^2 n)) and keeps the linear right-greedy pass.
    """
    if sides not in ("both", "right", "left"):
        raise ValueError("sides must be 'both', 'right' or 'left'")
    idx = PalindromeIndex(materialize(stream, horizon))
    rg = right_greedy_counts(idx.lps) if sides in ("both", "right") else []
    lg = idx.left_greedy_counts() if sides in ("both", "left") else []
    return GreedyProfile(lg, rg, running_max(lg), running_max(rg))
