"""Seeded fuzzing of the command line over the spec DSL and every subcommand.

Whatever the arguments, ``palfact`` must exit 0, or exit 2 with an
``error:`` line; exit 1 is kept for a failed verification claim, and no
exception may escape ``main``.
"""

import random

from palfact.cli import main

SUITES = ("occdiff", "multibonacci", "floors", "uword", "ladder", "nextsets")
FIXED_SPECS = (
    "lit:", "lit:a", "lit:ab", "lit:abba", "lit:aabaab", "lit:121312", "lit:0120",
    "lit:A", "lit:a b", "periodic:", "periodic:ab", "periodic:aabab",
    "morphism:a>ab,b>a@a", "morphism:a>ab,b>ba@a", "morphism:a>ab@a",
    "morphism:a>b,b>a@a", "morphism:", "morphism:a>ab,b>ba@c", "fib", "U",
    "mbstream", "uladderper:2", "uladderper:0", "multibonacci:", "uladder:",
    "bogus:1", "", ":", "lit", "fib:3",
)
NUMBERS = ("-3", "-1", "0", "1", "2", "3", "5", "8", "17", "40", "x", "")


def random_spec(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(FIXED_SPECS)
    if kind == 1:
        return "lit:" + "".join(rng.choice("ab") for _ in range(rng.randrange(12)))
    if kind == 2:
        return "lit:" + "".join(rng.choice("abcz0129") for _ in range(rng.randrange(9)))
    if kind == 3:  # malformed text in any family
        junk = "".join(rng.choice("ab01:@>,-Z ") for _ in range(rng.randrange(7)))
        return rng.choice(("lit:", "periodic:", "morphism:", "multibonacci:",
                           "uladder:", "uladderper:", "")) + junk
    if kind == 4:
        return "periodic:" + "".join(rng.choice("abc") for _ in range(rng.randrange(5)))
    if kind == 5:
        return f"multibonacci:{rng.randint(-2, 6)}"
    return f"uladder:{rng.randint(-1, 4)}"


def option(rng: random.Random, name: str) -> list[str]:
    """``name`` with a small, zero, negative or malformed value, or nothing."""
    if rng.random() < 0.25:
        return []
    return [name, rng.choice(NUMBERS)]


def random_argv(rng: random.Random) -> list[str]:
    command = rng.choice(("len", "decompose", "profile", "bounds", "next",
                          "verify", "experiments"))
    fmt = ["--format", rng.choice(("text", "csv", "json"))] if rng.random() < 0.8 else []
    if command == "verify":
        names = rng.sample(SUITES + ("bogus",), rng.randint(1, 2))
        return [command, *names, "--seed", str(rng.randint(-3, 3)), *fmt]
    if command == "experiments":
        names = rng.sample(("occdiff", "multibonacci", "floors", "oracles", "bogus"),
                           rng.randint(1, 2))
        return [command, *names, *fmt]
    argv = [command, random_spec(rng), *fmt, *option(rng, "--cap")]
    if command == "decompose":
        argv += option(rng, "--limit")
    elif command in ("profile", "bounds"):
        # an omitted horizon defaults to 1000; keep the runs small
        argv += ["--horizon", rng.choice(NUMBERS[:10])]
        if command == "bounds":
            argv += option(rng, "--window")
    elif command == "next":
        argv += ["--max-len", rng.choice(NUMBERS)]
    return argv


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.err


def test_cli_fuzz_exits_cleanly(capsys):
    rng = random.Random(20261018)
    problems = []
    for _ in range(400):
        argv = random_argv(rng)
        try:
            code, err = run(capsys, argv)
        except Exception as exc:  # noqa: BLE001 - report every escape
            problems.append(f"{argv}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 2) or "Traceback" in err:
            problems.append(f"{argv}: exit {code}, stderr {err!r}")
        elif code == 2 and "error:" not in err:
            problems.append(f"{argv}: exit 2 without an error line: {err!r}")
    assert not problems, "\n".join(problems)
