"""Seeded op lists for the benchmark workloads and the checks of their outputs.

An op is one ``palfact`` command line.  The benchmark generates every random
word itself from the seed, so the program only ever receives ``lit:`` specs
and fixed named streams.  Each check compares an op's captured output with a
reference that shares no fast path with the program: the definition-level
scans in ``palfact.oracles``, the direct minimization ``pal_dp``, and stream
prefixes rebuilt here from their definitions.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

WHY = {
    "profile-streams": "each op builds one large index over a named stream; "
                       "lgpal_profile dominates and the JSON arrays load the cli layer",
    "finite-words": "the only workload with many short ops (len, decompose, next), "
                    "so the only one with real latency percentiles",
    "verify-all": "backtracking over SharedEertree, quadratic oracle scans and "
                  "property suites on small words; no large index is built",
}

PROFILE_STREAMS = (
    ("fib", 50_000),
    ("U", 30_000),
    ("mbstream", 50_000),
    ("morphism:a>ab,b>ba@a", 50_000),
    ("periodic:aabab", 50_000),
)
PROFILE_RANDOM_LEN = 4_000

LEN_RANDOM = ((2, 100_000), (4, 100_000))  # (alphabet, length)
DECOMPOSE_LENGTHS = 14  # log-spaced lengths; each gets one word per alphabet 2, 3, 4
DECOMPOSE_LEN = (10, 4_000)
NEXT_OPS = 100
NEXT_MAX_LEN = (16, 128)
NEXT_BASE_LEN = 8  # base lengths cycle through 1..8

# Least prefix length of the Fibonacci word needing k palindromes (published).
FIB_FIRST_ATTAINMENT = {1: 1, 2: 2, 3: 9, 4: 62, 5: 297, 6: 1154, 7: 5473}
PROFILE_CHECK_PREFIXES = 300  # prefixes checked against the oracles per op


@dataclass(frozen=True)
class Op:
    """One command line plus what its check needs."""

    kind: str  # profile | len | decompose | next | verify
    argv: tuple[str, ...]
    size: int  # input symbols (horizon or word length); claims for verify
    spec: str = ""  # word or stream spec handed to the program


# --------------------------------------------------------------------------
# Words and stream prefixes, rebuilt from their definitions
# --------------------------------------------------------------------------


def _letters(symbols) -> str:
    return "".join(chr(97 + s) for s in symbols)


def _random_lit(rng: random.Random, alphabet: int, n: int) -> str:
    return "lit:" + "".join(rng.choice("abcd"[:alphabet]) for _ in range(n))


def _fixed_point(rules: dict, seed: int, n: int) -> list[int]:
    w = list(rules[seed])
    i = 1
    while len(w) < n:
        w.extend(rules[w[i]])
        i += 1
    return w[:n]


def _levels(first: list[int], step, n: int) -> list[int]:
    w, k = list(first), 0
    while len(w) < n:
        w, k = step(w, k), k + 1
    return w[:n]


def _periodic(period: str, n: int) -> list[int]:
    p = [ord(c) - 97 for c in period]
    return (p * (n // len(p) + 1))[:n]


def _multibonacci(n: int) -> list[int]:
    m = [1]
    for k in range(2, n + 1):
        m = m + [k] + m
    return m


def _uladder(n: int) -> list[int]:
    u = [1]
    for k in range(1, n):
        u = u + [s + 2 ** (k - 1) for s in u] + u
    return u


def reference_word(spec: str, n: int | None = None) -> tuple[int, ...]:
    """Symbols of a spec used by the workloads (a prefix of length n for
    streams), built without the program's stream code."""
    if spec.startswith("lit:"):
        return tuple(ord(c) - 97 for c in spec[4:])
    if spec.startswith("multibonacci:"):
        return tuple(_multibonacci(int(spec.split(":")[1])))
    if spec.startswith("uladder:"):
        return tuple(_uladder(int(spec.split(":")[1])))
    if spec == "fib":
        w = _fixed_point({0: (0, 1), 1: (0,)}, 0, n)
    elif spec == "morphism:a>ab,b>ba@a":
        w = _fixed_point({0: (0, 1), 1: (1, 0)}, 0, n)
    elif spec == "U":
        w = _levels([0, 0], lambda u, k: u + [1, 1, 0, 1] + u + u[::-1], n)
    elif spec == "mbstream":
        w = _levels([1], lambda u, k: u + [k + 2] + u, n)
    elif spec.startswith("periodic:"):
        w = _periodic(spec.split(":")[1], n)
    else:
        raise ValueError(f"no reference for {spec!r}")
    return tuple(w)


# --------------------------------------------------------------------------
# Op lists
# --------------------------------------------------------------------------


def _log_grid(lo: int, hi: int, k: int) -> list[int]:
    """k sizes spaced evenly in log from lo to hi inclusive.  The sizes are
    the same for every seed; the seed changes the words, so the cost of a
    pass does not swing with a few long draws."""
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (b - a) * i / (k - 1))) for i in range(k)]


def profile_streams(rng: random.Random, seed: int) -> list[Op]:
    ops = [Op("profile", ("profile", s, "--horizon", str(h), "--format", "json"), h, s)
           for s, h in PROFILE_STREAMS]
    spec = _random_lit(rng, 2, PROFILE_RANDOM_LEN)
    ops.append(Op("profile", ("profile", spec, "--horizon", str(PROFILE_RANDOM_LEN),
                              "--format", "json"), PROFILE_RANDOM_LEN, spec))
    return ops


def finite_words(rng: random.Random, seed: int) -> list[Op]:
    ops = [Op("len", ("len", "multibonacci:17"), 2**17 - 1, "multibonacci:17"),
           Op("len", ("len", "uladder:11"), 3**10, "uladder:11")]
    for alphabet, n in LEN_RANDOM:
        spec = _random_lit(rng, alphabet, n)
        ops.append(Op("len", ("len", spec), n, spec))
    for n in _log_grid(*DECOMPOSE_LEN, DECOMPOSE_LENGTHS):
        for alphabet in (2, 3, 4):
            spec = _random_lit(rng, alphabet, n)
            ops.append(Op("decompose", ("decompose", spec, "--format", "json"), n, spec))
    for k, max_len in enumerate(_log_grid(*NEXT_MAX_LEN, NEXT_OPS)):
        spec = _next_base(rng, 1 + k % NEXT_BASE_LEN, max_len)
        ops.append(Op("next", ("next", spec, "--max-len", str(max_len)), max_len, spec))
    # interleave the kinds so that a slow stretch of the host hits all alike
    rng.shuffle(ops)
    return ops


def _next_base(rng: random.Random, n: int, max_len: int) -> str:
    """A random binary base of length n whose next set up to max_len is not
    empty.  Most random bases of 5 to 8 letters have an empty next set, and
    such an op costs parsing alone; drawing those freely would put the median
    op on the cliff between the two kinds, where the seed moves it by a
    sixth."""
    while True:
        spec = _random_lit(rng, 2, n)
        if next_members(reference_word(spec), max_len):
            return spec


def verify_all(rng: random.Random, seed: int) -> list[Op]:
    # size is filled in from the claims the op reports
    return [Op("verify", ("verify", "all", "--seed", str(seed)), 0)]


GENERATORS = {
    "profile-streams": profile_streams,
    "finite-words": finite_words,
    "verify-all": verify_all,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"palfact-bench:{workload}:{seed}")
    return GENERATORS[workload](rng, seed)


def verify_claims(out: str) -> int:
    """Number of claims a text-format ``verify`` run reports."""
    return sum(1 for line in out.splitlines()
               if line.startswith(("[PASS]", "[FAIL]", "[INFO]")))


# --------------------------------------------------------------------------
# Checks: each returns a list of problems (empty when the output is right)
# --------------------------------------------------------------------------


def _pal_table(w) -> list[int]:
    from palfact.pallen import pal_dp

    return list(pal_dp(w)[1].values)


def _is_pal(t) -> bool:
    return t == t[::-1]


def _tiles(spans, w) -> bool:
    """Spans (1-based, inclusive) tile w, each one a palindrome."""
    expect = 1
    for s, e in spans:
        if s != expect or e < s or not _is_pal(w[s - 1:e]):
            return False
        expect = e + 1
    return expect == len(w) + 1


def _check_profile(op: Op, rc, out: str) -> list[str]:
    from palfact import oracles

    doc = json.loads(out)
    pal, lg, rg = doc["pal"], doc["lgpal"], doc["rgpal"]
    n = op.size
    bad = []
    if not len(pal) == len(lg) == len(rg) == doc["horizon"] == n:
        return [f"profile arrays have lengths {len(pal)}/{len(lg)}/{len(rg)}, want {n}"]
    w = reference_word(op.spec, n)
    k = min(n, PROFILE_CHECK_PREFIXES)
    if pal[:k] != oracles.brute_pal_table(w[:k])[1:]:
        bad.append("pal differs from brute_pal_table on the first prefixes")
    for m in range(1, k + 1):
        if lg[m - 1] != oracles.brute_lgpal(w[:m]) or rg[m - 1] != oracles.brute_rgpal(w[:m]):
            bad.append(f"greedy counts differ from the oracles at prefix {m}")
            break
    if any(p > min(a, b) for p, a, b in zip(pal, lg, rg)):
        bad.append("a minimum exceeds a greedy count")
    if (doc["max_pal"], doc["max_lgpal"], doc["max_rgpal"]) != (max(pal), max(lg), max(rg)):
        bad.append("reported maxima disagree with the arrays")
    first = {int(key): v for key, v in doc["first_attainment"].items()}
    for key, v in first.items():
        if v is not None and (pal[v - 1] != key or key in pal[:v - 1]):
            bad.append(f"first attainment of {key} is wrong")
    if op.spec == "fib":
        for key, v in FIB_FIRST_ATTAINMENT.items():
            if v <= n and first.get(key) != v:
                bad.append(f"fib m({key}) = {first.get(key)}, published {v}")
    return bad


_LEN_RE = re.compile(r"pal=(\d+) lgpal=(\d+) rgpal=(\d+)")


def _check_len(op: Op, rc, out: str) -> list[str]:
    m = _LEN_RE.search(out)
    if not m:
        return ["len output has no counts"]
    p, lg, rg = map(int, m.groups())
    want = _pal_table(reference_word(op.spec))[-1]
    bad = []
    if p != want:
        bad.append(f"pal {p}, pal_dp gives {want}")
    if min(lg, rg) < p:
        bad.append("a greedy count is below the minimum")
    return bad


def _check_decompose(op: Op, rc, out: str) -> list[str]:
    doc = json.loads(out)
    w = reference_word(op.spec)
    want = _pal_table(w)[-1]
    minimal = doc["minimal"]
    decs = [tuple(map(tuple, d)) for d in minimal["decompositions"]]
    bad = []
    if minimal["pal"] != want:
        bad.append(f"pal {minimal['pal']}, pal_dp gives {want}")
    if not decs or len(set(decs)) != len(decs):
        bad.append("minimal decompositions are missing or repeated")
    for d in decs:
        if len(d) != want or not _tiles(d, w):
            bad.append("a minimal decomposition is not a tiling by "
                       f"{want} palindromes")
            break
    for side in ("left_greedy", "right_greedy"):
        spans = doc[side]["spans"]
        if len(spans) < want or not _tiles(spans, w):
            bad.append(f"{side} is not a palindromic tiling")
    return bad


def _rendered(text: str) -> tuple[int, ...]:
    """Symbols of a word as ``str(Word)`` prints it: digits when every symbol
    is in 1..9, letters otherwise."""
    if text.isdigit():
        return tuple(int(c) for c in text)
    return tuple(ord(c) - 97 for c in text)


def next_members(base: tuple[int, ...], max_len: int) -> set[tuple[int, ...]]:
    """The next set of a binary base up to max_len, by a depth-first search
    straight from its definition: palindromes longer than the base that
    start with it, whose every prefix is a product of at most two
    palindromes, and whose proper palindromic prefixes are prefixes of the
    base.  Both conditions hold for every prefix, so a branch that breaks one
    is cut, and a branch that reaches a palindrome ends there."""
    w: list[int] = []
    single = [True]  # single[j]: w[:j] is one palindrome (j = 0: empty)

    def factors() -> int:
        """Least number of palindromes (1, 2 or 3 meaning more) for w, given
        single[] of its proper prefixes."""
        if w == w[::-1]:
            return 1
        n = len(w)
        return 2 if any(single[j] and _is_pal(w[j:n]) for j in range(n)) else 3

    for c in base:
        w.append(c)
        k = factors()
        if k > 2:
            return set()
        single.append(k == 1)
    found = set()

    def grow() -> None:
        for c in (0, 1):
            w.append(c)
            k = factors()
            if k == 1:
                found.add(tuple(w))
            elif k == 2 and len(w) < max_len:
                single.append(False)
                grow()
                single.pop()
            w.pop()

    if len(w) < max_len:
        grow()
    return found


def _check_next(op: Op, rc, out: str) -> list[str]:
    from palfact.analysis import validate_next_member

    base = reference_word(op.spec)
    lines = out.splitlines()
    try:
        i = next(k for k, line in enumerate(lines) if line.startswith("palindromes ("))
        j = next(k for k, line in enumerate(lines) if line.startswith("open branches ("))
    except StopIteration:
        return ["next output has no member or branch list"]
    members = [_rendered(r.strip()) for r in lines[i + 1:j]]
    opens = [_rendered(r.strip()) for r in lines[j + 1:]]
    bad = []
    if int(lines[i].split("(")[1].rstrip("):")) != len(members):
        bad.append("member count disagrees with the list")
    for p in members:
        if len(p) > op.size or not validate_next_member(base, p):
            bad.append(f"member {_letters(p)} fails validate_next_member")
            break
    want = next_members(base, op.size)
    if set(members) != want:
        bad.append(f"{len(set(members))} members, the definition gives {len(want)}")
    if any(len(p) != op.size for p in opens):
        bad.append("an open branch is shorter than --max-len")
    return bad


def _check_verify(op: Op, rc, out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith(("[FAIL]", "[FAILED]"))]


CHECKS = {
    "profile": _check_profile,
    "len": _check_len,
    "decompose": _check_decompose,
    "next": _check_next,
    "verify": _check_verify,
}


def check(op: Op, rc, out: str) -> list[str]:
    """Problems with one op's result; an op must exit 0 to be checked."""
    if rc != 0:
        return [f"exit {rc}"]
    try:
        return CHECKS[op.kind](op, rc, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
