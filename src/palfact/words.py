"""Finite words over an unbounded non-negative integer alphabet."""

from __future__ import annotations

import re
from itertools import repeat
from operator import itemgetter, le, sub
from typing import Iterable, Sequence, Union


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_TEXT = re.compile("[a-z0-9]*")
_TEXT_SYMBOLS = bytes.maketrans(_LETTERS.encode() + b"0123456789",
                                bytes(range(26)) + bytes(range(10)))
# The way back: symbols 0..25 as letters and 0..9 as digits.  Every other
# byte maps to itself, so a space can separate words.
_LETTER_TEXT = bytes.maketrans(bytes(range(26)), _LETTERS.encode())
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def _symbols_from_text(text: str) -> tuple[int, ...]:
    """Letters a..z as 0..25 and digits as their values, mapped in C."""
    if text.isascii() and _TEXT.fullmatch(text):
        return tuple(text.encode("ascii").translate(_TEXT_SYMBOLS))
    bad = next(ch for ch in text if not ("a" <= ch <= "z" or "0" <= ch <= "9"))
    raise ValueError(f"cannot map character {bad!r} to a symbol")


class Word(tuple):
    """Immutable word over non-negative integer symbols.

    ``Word("abaab")`` maps letters a..z to 0..25; ``Word("121")`` maps digit
    characters to their integer value.  Any iterable of ints is taken as-is.
    Renaming symbols never changes any quantity computed by this library, so
    the two text notations may be mixed freely in tests and reports.
    """

    __slots__ = ()

    def __new__(cls, symbols: Union[str, Iterable[int]] = ()):
        if isinstance(symbols, str):
            return super().__new__(cls, _symbols_from_text(symbols))
        w = super().__new__(cls, symbols)
        # checked in C; the loop only finds the first bad symbol to name it
        if w and not (all(map(isinstance, w, repeat(int))) and min(w) >= 0):
            for s in w:
                if not isinstance(s, int) or s < 0:
                    raise ValueError(f"symbols must be non-negative ints, got {s!r}")
        return w

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        return _join(self, render_style(self))

    def letters(self) -> str:
        """Render with a..z for symbols 0..25."""
        if self and max(self) > 25:
            raise ValueError("word has symbols outside a..z range")
        return _join(self, "letters")

    def digits(self) -> str:
        """Render with one digit character per symbol (symbols must be 0..9)."""
        if self and max(self) > 9:
            raise ValueError("word has symbols outside 0..9 range")
        return _join(self, "digits")

    def __add__(self, other) -> "Word":
        return Word(tuple(self) + tuple(other))

    def __radd__(self, other) -> "Word":
        return Word(tuple(other) + tuple(self))

    def __mul__(self, k) -> "Word":
        return Word(tuple(self) * k)

    def __rmul__(self, k) -> "Word":
        return Word(tuple(self) * k)

    def __getitem__(self, item):
        if isinstance(item, slice):
            # the symbols were checked when this word was built
            return tuple.__new__(Word, tuple.__getitem__(self, item))
        return tuple.__getitem__(self, item)


class Decomposition:
    """Ordered palindromic spans tiling a word; 1-based inclusive bounds.

    The one type of a palindromic tiling: minimal, left- and right-greedy
    decompositions alike.  Two decompositions are equal when their spans
    are.
    """

    __slots__ = ("spans",)

    def __init__(self, spans: tuple[tuple[int, int], ...]):
        self.spans = spans

    def __eq__(self, other):
        if type(other) is not Decomposition:
            return NotImplemented
        return self.spans == other.spans

    def __repr__(self) -> str:
        return f"Decomposition(spans={self.spans!r})"

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


def render_style(w: "Word") -> str:
    """The notation ``str`` picks for a word: digits, letters or ints.

    Words over 1..9 with no 0 come from the integer-letter families;
    everything else up to 25 renders as letters.  The decision takes one
    C-level ``min`` and ``max``, not a Python scan per symbol.
    """
    if not w:
        return "letters"
    top = max(w)
    if top <= 9 and min(w) >= 1:
        return "digits"
    return "letters" if top <= 25 else "ints"


def _join(w: "Word", style: str) -> str:
    """Render a word in ``style`` in C, trusting that its symbols fit the
    notation."""
    if style == "ints":
        return ".".join(map(str, w))
    table = _LETTER_TEXT if style == "letters" else _DIGIT_TEXT
    return bytes(w).translate(table).decode("ascii")


def letter_texts(words: Sequence[Sequence[int]]) -> list[str]:
    """Each of ``words`` in letters, trusting that its symbols are 0..25.

    The words are joined by spaces, translated and split again, so no
    Python code runs per word or per symbol.
    """
    if not words:
        return []
    text = b" ".join(map(bytes, words)).translate(_LETTER_TEXT).decode("ascii")
    return text.split(" ")


def render(w: "Word", style: str) -> str:
    """Render a word in a fixed notation (so factors of a word can be shown
    in the same notation as the whole word)."""
    if style == "digits":
        return w.digits()
    if style == "letters":
        return w.letters()
    return _join(w, "ints")


def mirror(w: Sequence[int]) -> Word:
    """Reversal of a word."""
    return Word(tuple(reversed(w)))


def is_palindrome(w: Sequence[int]) -> bool:
    """True iff the word equals its reversal; the empty word counts."""
    n = len(w)
    for i in range(n // 2):
        if w[i] != w[n - 1 - i]:
            return False
    return True


def is_primitive(w: Sequence[int]) -> bool:
    """True iff the word is not a proper power of a shorter word."""
    n = len(w)
    if n == 0:
        raise ValueError("primitivity is undefined for the empty word")
    t = tuple(w)
    for d in range(1, n):
        if n % d == 0 and t[:d] * (n // d) == t:
            return False
    return True


def failure_table(w: Sequence[int]) -> list[int]:
    """fail[i] is the length of the longest proper border of w[:i + 1]
    (the Knuth-Morris-Pratt failure function), in O(|w|)."""
    fail = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    return fail


def count_occurrences(w: Sequence[int], factor: Sequence[int]) -> int:
    """Number of (possibly overlapping) occurrences of ``factor`` in ``w``."""
    f = tuple(factor)
    m = len(f)
    if m == 0:
        raise ValueError("occurrence counting needs a nonempty factor")
    t = tuple(w)
    return sum(1 for i in range(len(t) - m + 1) if t[i : i + m] == f)
