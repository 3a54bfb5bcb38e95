"""Infinite words as memoized prefix streams, plus the named finite families.

Every stream materializes into a single growable buffer: ``prefix(n)`` is
idempotent and monotone (the length-n prefix is always a prefix of the
length-m prefix for n <= m) because symbols are appended exactly once.  A
global cap (default 10**8 symbols, overridable per stream) turns runaway
materialization into a loud ``CapExceeded`` instead of memory exhaustion.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from .errors import CapExceeded, ParseError
from .words import Word, is_palindrome, mirror

DEFAULT_CAP = 10**8

DSL_GRAMMAR = """\
Word and stream specifications
------------------------------
finite words:
  lit:abaab          letters a..z -> symbols 0..25, digits -> their value
  multibonacci:N     the N-th nested doubling word over integer symbols
                     (1, 121, 1213121, ...)
  uladder:N          the N-th shifted-alphabet ladder word (1, 121,
                     121343121, ...)
streams (infinite words):
  periodic:abba      the periodic word abba abba abba ...
  evper:u|v          the word u v v v ... (v nonempty)
  morphism:a>ab,b>a@a   fixed point of the substitution, seeded at the
                     letter after '@'; the seed rule must start with the
                     seed and have length >= 2
  fib                alias for morphism:a>ab,b>a@a
  U                  the uniformly recurrent binary word built from
                     u0 = aa, u_{k+1} = u_k bbab u_k reverse(u_k)
  mbstream           the limit of the multibonacci words
  uladderper:N       the periodic word (u_N v_N)^w from the ladder family
"""


class InfiniteWord:
    """Prefix-on-demand stream with one growable buffer.

    Buffer extension happens under a lock; already-materialized symbols are
    never rewritten, so concurrent readers of shorter prefixes are safe.
    """

    def __init__(self, cap: int | None = None):
        self._buf: list[int] = []
        self._lock = threading.Lock()
        self.cap = DEFAULT_CAP if cap is None else cap

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"

    def prefix(self, n: int) -> Word:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n > self.cap:
            raise CapExceeded(f"prefix({n}) exceeds the cap of {self.cap} symbols")
        if len(self._buf) < n:
            with self._lock:
                while len(self._buf) < n:
                    self._extend(n)
        return Word(self._buf[:n])

    def _extend(self, n: int) -> None:
        raise NotImplementedError


class Periodic(InfiniteWord):
    """v v v ... for a nonempty finite v."""

    def __init__(self, period: Sequence[int], cap: int | None = None, name: str | None = None):
        super().__init__(cap)
        self.period = Word(period)
        self.name = name
        if not self.period:
            raise ValueError("period must be nonempty")

    def spec_string(self) -> str:
        return self.name or f"periodic:{self.period}"

    def _extend(self, n: int) -> None:
        buf = self._buf
        p = self.period
        while len(buf) < n:
            buf.extend(p)


class Prepend(InfiniteWord):
    """A finite word followed by another stream."""

    def __init__(self, head: Sequence[int], tail: InfiniteWord, cap: int | None = None):
        super().__init__(cap)
        self.head = Word(head)
        self.tail = tail

    def spec_string(self) -> str:
        return f"pre:{self.head}|{self.tail.spec_string()}"

    def _extend(self, n: int) -> None:
        buf = self._buf
        if len(buf) < len(self.head):
            buf.extend(self.head[len(buf) :])
        if len(buf) < n:
            need = n - len(self.head)
            buf.extend(self.tail.prefix(need)[len(buf) - len(self.head) :])


class EventuallyPeriodic(Prepend):
    """u v v v ..."""

    def __init__(self, head: Sequence[int], period: Sequence[int], cap: int | None = None):
        super().__init__(head, Periodic(period), cap)
        self.period = Word(period)

    def spec_string(self) -> str:
        return f"evper:{self.head}|{self.period}"


class MorphismFixedPoint(InfiniteWord):
    """Fixed point of a substitution prolongable on its seed letter."""

    def __init__(self, rules: dict, seed: int, cap: int | None = None, name: str | None = None):
        super().__init__(cap)
        self.rules = {k: tuple(v) for k, v in rules.items()}
        self.seed = seed
        self.name = name
        img = self.rules.get(seed)
        if img is None or len(img) < 2 or img[0] != seed:
            raise ValueError(
                "substitution is not prolongable: the seed's image must start "
                "with the seed and have length >= 2"
            )
        reachable = set(img)
        frontier = list(reachable)
        while frontier:
            s = frontier.pop()
            if s not in self.rules:
                raise ValueError(f"no rule for symbol {s!r} reachable from the seed")
            for t in self.rules[s]:
                if t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        self._ptr = 0

    def spec_string(self) -> str:
        if self.name:
            return self.name
        rules = ",".join(f"{Word((k,))}>{Word(v)}" for k, v in sorted(self.rules.items()))
        return f"morphism:{rules}@{Word((self.seed,))}"

    def _extend(self, n: int) -> None:
        buf = self._buf
        rules = self.rules
        if not buf:
            buf.extend(rules[self.seed])
            self._ptr = 1
        while len(buf) < n:
            buf.extend(rules[buf[self._ptr]])
            self._ptr += 1


def fibonacci_stream(cap: int | None = None) -> MorphismFixedPoint:
    """Fixed point of a -> ab, b -> a."""
    return MorphismFixedPoint({0: (0, 1), 1: (0,)}, 0, cap=cap, name="fib")


class LevelStream(InfiniteWord):
    """Stream built by repeatedly replacing the buffer with a longer word
    that keeps the current buffer as a prefix."""

    def __init__(
        self,
        first: Sequence[int],
        step: Callable[[list[int], int], list[int]],
        name: str,
        cap: int | None = None,
    ):
        super().__init__(cap)
        self._buf = list(first)
        self._step = step
        self._level = 0
        self._name = name

    def spec_string(self) -> str:
        return self._name

    def _extend(self, n: int) -> None:
        self._buf = self._step(self._buf, self._level)
        self._level += 1


def word_u_stream(cap: int | None = None) -> LevelStream:
    """Binary word with infinitely many palindromic factors but no suffix
    beginning with infinitely many palindromes: u0 = aa,
    u_{k+1} = u_k bbab u_k reverse(u_k)."""
    return LevelStream([0, 0], lambda w, k: w + [1, 1, 0, 1] + w + w[::-1], "U", cap=cap)


def multibonacci_stream(cap: int | None = None) -> LevelStream:
    """Limit of the multibonacci words over integer symbols."""
    return LevelStream([1], lambda w, k: w + [k + 2] + w, "mbstream", cap=cap)


def closure_power_stream(cap: int | None = None) -> LevelStream:
    """Limit of p0 = aba, p_{k+1} = p_k a^k p_k (each level is the
    palindromic closure of the previous level extended by a's)."""
    return LevelStream([0, 1, 0], lambda w, k: w + [0] * k + w, "closurepow", cap=cap)


def _check_cap(length: int, cap: int | None) -> None:
    limit = DEFAULT_CAP if cap is None else cap
    if length > limit:
        raise CapExceeded(f"requested word of length {length} exceeds the cap of {limit}")


def multibonacci(n: int, cap: int | None = None) -> Word:
    """n-th multibonacci word: m1 = 1, m_k = m_{k-1} k m_{k-1}.

    Length 2**n - 1, palindromic, ends with symbol 1.
    """
    if n < 1:
        raise ValueError("multibonacci index must be >= 1")
    _check_cap(2**n - 1, cap)
    m = [1]
    for k in range(2, n + 1):
        m = m + [k] + m
    return Word(m)


def u_ladder(n: int, cap: int | None = None) -> tuple[Word, Word]:
    """n-th ladder pair (u_n, v_n): u_1 = 1,
    u_{k+1} = u_k shift(u_k, 2**(k-1)) u_k and v_n = shift(u_n, 2**(n-1)),
    where shift adds a constant to every symbol.

    |u_n| = 3**(n-1); both components are palindromes.
    """
    if n < 1:
        raise ValueError("ladder index must be >= 1")
    _check_cap(3 ** (n - 1), cap)
    u = (1,)
    for k in range(1, n):
        shift = 2 ** (k - 1)
        u = u + tuple(s + shift for s in u) + u
    v = tuple(s + 2 ** (n - 1) for s in u)
    return Word(u), Word(v)


def u_ladder_periodic(n: int, cap: int | None = None) -> Periodic:
    """The periodic word (u_n v_n)^w over 2**n symbols."""
    u, v = u_ladder(n, cap)
    return Periodic(u + v, cap, name=f"uladderper:{n}")


def word_u_component(n: int, cap: int | None = None) -> tuple[Word, bool]:
    """n-th building block of the word U, with its structural check.

    Returns (u_n, ok) where ok asserts |u_n| = 4*3**n - 2 and that
    u_n reverse(u_n) is a palindrome.
    """
    if n < 0:
        raise ValueError("component index must be >= 0")
    _check_cap(4 * 3**n - 2, cap)
    u = [0, 0]
    for _ in range(n):
        u = u + [1, 1, 0, 1] + u + u[::-1]
    w = Word(u)
    ok = len(w) == 4 * 3**n - 2 and is_palindrome(w + mirror(w))
    return w, ok


def _parse_int(text: str, token: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer in {token!r}", token=token) from None


def _parse_word_text(text: str, token: str) -> Word:
    try:
        return Word(text)
    except ValueError as exc:
        raise ParseError(f"bad word in {token!r}: {exc}", token=token) from None


def parse_spec(text: str, cap: int | None = None):
    """Parse a word/stream specification; see ``DSL_GRAMMAR``.

    Returns a ``Word`` for finite forms and an ``InfiniteWord`` for streams.
    Raises ``ParseError`` naming the offending token.
    """
    token = text.strip()
    if not token:
        raise ParseError("empty word specification", token=text)
    if token == "fib":
        return fibonacci_stream(cap)
    if token == "U":
        return word_u_stream(cap)
    if token == "mbstream":
        return multibonacci_stream(cap)
    head, sep, rest = token.partition(":")
    if not sep:
        raise ParseError(f"unknown word specification {token!r}", token=token)
    if head == "lit":
        return _parse_word_text(rest, token)
    if head == "periodic":
        w = _parse_word_text(rest, token)
        if not w:
            raise ParseError(f"periodic needs a nonempty period in {token!r}", token=token)
        return Periodic(w, cap)
    if head == "evper":
        parts = rest.split("|")
        if len(parts) != 2:
            raise ParseError(f"evper needs the form evper:u|v in {token!r}", token=token)
        u = _parse_word_text(parts[0], token)
        v = _parse_word_text(parts[1], token)
        if not v:
            raise ParseError(f"evper needs a nonempty period in {token!r}", token=token)
        return EventuallyPeriodic(u, v, cap)
    if head == "morphism":
        body, sep2, seed_text = rest.partition("@")
        if not sep2:
            raise ParseError(f"morphism needs '@seed' in {token!r}", token=token)
        seed = _parse_word_text(seed_text, token)
        if len(seed) != 1:
            raise ParseError(f"morphism seed must be a single letter in {token!r}", token=token)
        rules = {}
        for rule_text in body.split(","):
            lhs, sep3, rhs = rule_text.partition(">")
            if not sep3:
                raise ParseError(f"bad rule {rule_text!r} in {token!r}", token=rule_text)
            lhs_w = _parse_word_text(lhs, token)
            if len(lhs_w) != 1:
                raise ParseError(f"rule source must be one letter in {rule_text!r}", token=rule_text)
            rules[lhs_w[0]] = tuple(_parse_word_text(rhs, token))
        try:
            return MorphismFixedPoint(rules, seed[0], cap)
        except ValueError as exc:
            raise ParseError(f"bad morphism in {token!r}: {exc}", token=token) from None
    if head == "multibonacci":
        return multibonacci(_parse_int(rest, token), cap)
    if head == "uladder":
        return u_ladder(_parse_int(rest, token), cap)[0]
    if head == "uladderper":
        return u_ladder_periodic(_parse_int(rest, token), cap)
    raise ParseError(f"unknown word specification {token!r}", token=token)


def materialize(source, horizon: int | None = None) -> Word:
    """Word from either a finite word or a stream (streams need a horizon)."""
    if isinstance(source, InfiniteWord):
        if horizon is None:
            raise ValueError("a horizon is required to materialize a stream")
        return source.prefix(horizon)
    w = source if isinstance(source, Word) else Word(source)
    if horizon is not None:
        if horizon < 0:  # a negative slice bound would drop letters from the end
            raise ValueError("prefix length must be >= 0")
        return w[:horizon]
    return w


def spec_of(source) -> str:
    """Report label for a word or stream."""
    if isinstance(source, InfiniteWord):
        return source.spec_string()
    return f"lit:{Word(source)}"
