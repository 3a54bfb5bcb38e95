"""Palindromic-prefix sequences of streams and related word tests."""

from __future__ import annotations

from typing import Optional, Sequence

from .eertree import PalindromeIndex
from .streams import materialize, spec_of
from .words import failure_table


class PalindromicPrefixSeq:
    """Strictly increasing lengths of all palindromic prefixes up to a horizon."""

    __slots__ = ("word_spec", "horizon", "lengths")

    def __init__(self, word_spec: str, horizon: int, lengths: tuple[int, ...]):
        self.word_spec = word_spec
        self.horizon = horizon
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return iter(self.lengths)


class GapSequence:
    """Consecutive differences of a palindromic-prefix length sequence."""

    __slots__ = ("gaps", "monotone")

    def __init__(self, gaps: tuple[int, ...], monotone: bool):
        self.gaps = gaps
        self.monotone = monotone

    def stabilized_gap(self, repeats: int = 3) -> Optional[int]:
        """The eventual gap value, if the tail holds it at least ``repeats``
        times within the observed window; bounded gaps characterize periodic
        streams among those with infinitely many palindromic prefixes."""
        if len(self.gaps) < repeats:
            return None
        tail = self.gaps[-repeats:]
        if all(g == tail[0] for g in tail):
            return tail[0]
        return None


def palindromic_prefix_lengths(lps: Sequence[int]) -> tuple[int, ...]:
    """Sorted lengths of the palindromic prefixes of the word behind ``lps``.

    A prefix of length n is a palindrome exactly when its longest
    palindromic suffix is the whole prefix, so any index's ``lps`` array
    holds the answer.
    """
    return tuple(n for n, v in enumerate(lps, 1) if v == n)


def palindromic_prefixes(stream, horizon: int) -> PalindromicPrefixSeq:
    """Complete sorted list of palindromic-prefix lengths up to the horizon."""
    w = materialize(stream, horizon)
    lengths = palindromic_prefix_lengths(PalindromeIndex(w).lps)
    return PalindromicPrefixSeq(spec_of(stream), len(w), lengths)


def gap_sequence(seq) -> GapSequence:
    """Gaps between consecutive palindromic-prefix lengths.

    The gaps of every word's palindromic prefixes are non-decreasing.  Take
    consecutive palindromic prefixes u < v < w.  A palindromic prefix of a
    palindrome is also its suffix, so w has period w - v, and so has v.  If
    w - v < v, then v's prefix of length v - (w - v) is a palindrome (it is
    a border of v), so it is at most u.  Either way w - v >= v - u.  A
    decrease therefore means the lengths are wrong (``lps``, where they come
    from), never a counterexample from the paper: ``bound_report``'s
    ``prefix_gap_monotone`` and the ``gaps`` suite's monotone claim check the
    index.  Callers treat a decrease as a failure, not a flag.
    """
    lengths = tuple(seq)
    if len(lengths) < 2:
        raise ValueError("gap sequence needs at least two palindromic prefixes")
    gaps = tuple(b - a for a, b in zip(lengths, lengths[1:]))
    monotone = all(x <= y for x, y in zip(gaps, gaps[1:]))
    return GapSequence(gaps, monotone)


def _palindromic_prefix_set(t: tuple) -> set[int]:
    """Lengths of the palindromic prefixes of ``t``, 0 included, with no
    index: a prefix of t that is also a suffix of rev(t) is a palindrome, so
    they are the borders of t + (-1,) + rev(t), read off its failure
    function in O(|t|)."""
    fail = failure_table(t + (-1,) + t[::-1])
    out = {0}
    k = fail[-1]
    while k:
        out.add(k)
        k = fail[k - 1]
    return out


def product_of_two_palindromes(w: Sequence[int]) -> Optional[int]:
    """A split position p with w[1..p] and w[p+1..] both palindromes, or None.

    The empty side counts as a palindrome.  For primitive w, the existence of
    such a split decides whether the periodic stream over w contains
    arbitrarily long palindromic factors, and whether it has infinitely many
    palindromic prefixes.  Reports the largest split, so a palindromic input
    reports the full-length split.  Linear in |w|.
    """
    n = len(w)
    if n == 0:
        raise ValueError("split test needs a nonempty word")
    t = tuple(w)
    suffixes = _palindromic_prefix_set(t[::-1])
    return max((p for p in _palindromic_prefix_set(t) if n - p in suffixes),
               default=None)
