"""Infinite words as memoized prefix streams, plus the named finite families.

Every stream materializes into a single buffer that holds exactly the
longest prefix asked for: ``prefix(n)`` draws the missing symbols from the
stream's symbol iterator and nothing more.  It is idempotent and monotone
(the length-n prefix is always a prefix of the length-m prefix for n <= m)
because symbols are appended exactly once.  A global cap (default 10**8
symbols, overridable per stream) turns runaway materialization into a loud
``CapExceeded`` instead of memory exhaustion.
"""

from __future__ import annotations

import threading
from itertools import chain, count, cycle, islice
from typing import Callable, Sequence

from .errors import CapExceeded, ParseError
from .words import Word

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

    Each subclass only says what its symbols are: it sets ``_source``, an
    iterator over the word, and ``name``, its report label.  ``prefix`` is
    the one place that draws from the source, under a lock and exactly as
    many symbols as the buffer lacks, so the buffer holds exactly the
    longest prefix asked for.  A source may read the buffer, because
    ``list.extend`` appends each symbol before it draws the next.  Symbols
    are never rewritten, so concurrent readers of shorter prefixes are safe.
    A source yields only symbols checked where they entered the stream (the
    words it was built from, or this module's own level steps), so
    ``prefix`` builds its ``Word`` without checking them again.
    """

    def __init__(self, cap: int | None = None):
        self._buf: list[int] = []
        self._lock = threading.Lock()
        self.cap = DEFAULT_CAP if cap is None else cap

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"

    def prefix(self, n: int) -> Word:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n > self.cap:
            raise CapExceeded(f"prefix({n}) exceeds the cap of {self.cap} symbols")
        buf = self._buf
        if len(buf) < n:
            with self._lock:
                # another reader may have grown the buffer while this one waited
                buf.extend(islice(self._source, max(n - len(buf), 0)))
                if len(buf) < n:  # only a morphism's source can run dry
                    raise ValueError(f"the fixed point of {self.name} is "
                                     f"finite: it has {len(buf)} symbols")
        return tuple.__new__(Word, buf[:n])


class Periodic(InfiniteWord):
    """v v v ... for a nonempty finite v."""

    def __init__(self, period: Sequence[int], cap: int | None = None, name: str | None = None):
        super().__init__(cap)
        self.period = Word(period)
        if not self.period:
            raise ValueError("period must be nonempty")
        self.name = name or f"periodic:{self.period}"
        self._source = cycle(self.period)


class EventuallyPeriodic(InfiniteWord):
    """u v v v ...

    Not a ``Periodic``: callers read that class as "purely periodic"."""

    def __init__(self, head: Sequence[int], period: Sequence[int], cap: int | None = None):
        super().__init__(cap)
        self.head = Word(head)
        self.period = Word(period)
        if not self.period:
            raise ValueError("period must be nonempty")
        self.name = f"evper:{self.head}|{self.period}"
        self._source = chain(self.head, cycle(self.period))


class MorphismFixedPoint(InfiniteWord):
    """Fixed point of a substitution prolongable on its seed letter."""

    def __init__(self, rules: dict, seed: int, cap: int | None = None, name: str | None = None):
        super().__init__(cap)
        self.rules = {k: Word(v) for k, v in rules.items()}
        self.seed = seed
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
        # the seed's image, then the image of each buffered symbol from
        # position 1 on; the read position catches up with the buffer, and
        # the source ends, only if the fixed point is finite
        images = map(self.rules.__getitem__, islice(self._buf, 1, None))
        self._source = chain(img, chain.from_iterable(images))
        if not name:
            rules = ",".join(f"{Word((k,))}>{v}" for k, v in sorted(self.rules.items()))
            name = f"morphism:{rules}@{Word((seed,))}"
        self.name = name


def fibonacci_stream(cap: int | None = None) -> MorphismFixedPoint:
    """Fixed point of a -> ab, b -> a."""
    return MorphismFixedPoint({0: (0, 1), 1: (0,)}, 0, cap=cap, name="fib")


class LevelStream(InfiniteWord):
    """Limit of the levels w_0 = first, w_{k+1} = step(w_k, k), where each
    level is a prefix of the next."""

    def __init__(
        self,
        first: Sequence[int],
        step: Callable[[list[int], int], list[int]],
        name: str,
        cap: int | None = None,
    ):
        super().__init__(cap)
        self.name = name
        buf = self._buf
        # level k + 1's new part is drawn once level k is used up, when the
        # buffer holds exactly level k
        parts = map(lambda k: step(buf, k)[len(buf) :], count())
        self._source = chain(tuple(first), chain.from_iterable(parts))


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


def word_u_component(n: int, cap: int | None = None) -> Word:
    """n-th building block u_n of the word U, of length 4*3**n - 2."""
    if n < 0:
        raise ValueError("component index must be >= 0")
    _check_cap(4 * 3**n - 2, cap)
    u = [0, 0]
    for _ in range(n):
        u = u + [1, 1, 0, 1] + u + u[::-1]
    return Word(u)


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

    Returns a ``Word`` for finite forms and an ``InfiniteWord`` for streams,
    labelled with the stripped spec.  Raises ``ParseError`` naming the
    offending token.
    """
    token = text.strip()
    if not token:
        raise ParseError("empty word specification", token=text)
    source = _parse_token(token, cap)
    if isinstance(source, InfiniteWord):
        source.name = token
    return source


def _parse_token(token: str, cap: int | None):
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
        w = _parse_word_text(rest, token)
        _check_cap(len(w), cap)
        return w
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
            rules[lhs_w[0]] = _parse_word_text(rhs, token)
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
        return source.name
    return f"lit:{Word(source)}"
