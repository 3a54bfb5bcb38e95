"""Palindromic-prefix sequences of streams and related word tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .eertree import PalindromeIndex
from .streams import materialize, spec_of
from .words import is_palindrome


@dataclass(frozen=True)
class PalindromicPrefixSeq:
    """Strictly increasing lengths of all palindromic prefixes up to a horizon."""

    word_spec: str
    horizon: int
    lengths: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return iter(self.lengths)


@dataclass(frozen=True)
class GapSequence:
    """Consecutive differences of a palindromic-prefix length sequence."""

    gaps: tuple[int, ...]
    monotone: bool

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

    For any stream with infinitely many palindromic prefixes the gaps are
    non-decreasing; a decrease is a genuine counterexample and callers treat
    it as a failure, not a flag.
    """
    lengths = tuple(seq.lengths) if isinstance(seq, PalindromicPrefixSeq) else tuple(seq)
    if len(lengths) < 2:
        raise ValueError("gap sequence needs at least two palindromic prefixes")
    gaps = tuple(b - a for a, b in zip(lengths, lengths[1:]))
    monotone = all(x <= y for x, y in zip(gaps, gaps[1:]))
    return GapSequence(gaps, monotone)


def product_of_two_palindromes(w: Sequence[int]) -> Optional[int]:
    """A split position p with w[1..p] and w[p+1..] both palindromes, or None.

    The empty side counts as a palindrome.  For primitive w, the existence of
    such a split decides whether the periodic stream over w contains
    arbitrarily long palindromic factors.  Scans from the right, so a
    palindromic input reports the full-length split.
    """
    n = len(w)
    if n == 0:
        raise ValueError("split test needs a nonempty word")
    t = tuple(w)
    for p in range(n, -1, -1):
        if is_palindrome(t[:p]) and is_palindrome(t[p:]):
            return p
    return None
