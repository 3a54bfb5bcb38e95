"""Finite words over an unbounded non-negative integer alphabet."""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .eertree import PalindromeIndex

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _symbols_from_text(text: str) -> tuple[int, ...]:
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(ord(ch) - 97)
        elif "0" <= ch <= "9":
            out.append(int(ch))
        else:
            raise ValueError(f"cannot map character {ch!r} to a symbol")
    return tuple(out)


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
            symbols = _symbols_from_text(symbols)
        w = super().__new__(cls, symbols)
        for s in w:
            if not isinstance(s, int) or s < 0:
                raise ValueError(f"symbols must be non-negative ints, got {s!r}")
        return w

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        # Words over 1..9 with no 0 come from the integer-letter families;
        # everything else small renders as letters.
        if self and all(1 <= s <= 9 for s in self):
            return self.digits()
        if all(s <= 25 for s in self):
            return self.letters()
        return ".".join(str(s) for s in self)

    def letters(self) -> str:
        """Render with a..z for symbols 0..25."""
        if any(s > 25 for s in self):
            raise ValueError("word has symbols outside a..z range")
        return "".join(_LETTERS[s] for s in self)

    def digits(self) -> str:
        """Render with one digit character per symbol (symbols must be 0..9)."""
        if any(s > 9 for s in self):
            raise ValueError("word has symbols outside 0..9 range")
        return "".join(str(s) for s in self)

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
            return Word(tuple.__getitem__(self, item))
        return tuple.__getitem__(self, item)


EMPTY = Word()


def render_style(w: "Word") -> str:
    """The notation ``str`` picks for a word: digits, letters or ints."""
    if w and all(1 <= s <= 9 for s in w):
        return "digits"
    if all(s <= 25 for s in w):
        return "letters"
    return "ints"


def render(w: "Word", style: str) -> str:
    """Render a word in a fixed notation (so factors of a word can be shown
    in the same notation as the whole word)."""
    if style == "digits":
        return w.digits()
    if style == "letters":
        return w.letters()
    return ".".join(str(s) for s in w)


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


def primitive_root(w: Sequence[int]) -> Word:
    """Shortest word z with w = z^k; z is primitive and unique."""
    n = len(w)
    if n == 0:
        raise ValueError("primitive root is undefined for the empty word")
    t = tuple(w)
    for d in range(1, n + 1):
        if n % d == 0 and t[:d] * (n // d) == t:
            return Word(t[:d])
    raise AssertionError("unreachable")


def palindromic_closure(w: Sequence[int]) -> Word:
    """Shortest palindrome having ``w`` as a prefix.

    Uses the identity ``|closure| = 2|w| - (longest palindromic suffix of w)``,
    so the cost is linear instead of a quadratic scan over candidate lengths.
    """
    n = len(w)
    if n == 0:
        return EMPTY
    lps = PalindromeIndex(w).lps[-1]
    t = tuple(w)
    return Word(t + tuple(reversed(t[: n - lps])))


def count_occurrences(w: Sequence[int], factor: Sequence[int]) -> int:
    """Number of (possibly overlapping) occurrences of ``factor`` in ``w``."""
    f = tuple(factor)
    m = len(f)
    if m == 0:
        raise ValueError("occurrence counting needs a nonempty factor")
    t = tuple(w)
    return sum(1 for i in range(len(t) - m + 1) if t[i : i + m] == f)
