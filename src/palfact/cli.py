"""Command-line front end.

Exit codes: 0 success, 1 a verification suite found a counterexample,
2 usage, parse or resource errors.  Output is byte-identical for identical
arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, compress, repeat
from operator import is_

from .analysis import bound_report, classify_bound2, enumerate_next
from .errors import (AmbiguousHorizon, CapExceeded, ParseError, SearchCapExceeded,
                     WorkerDied)
from .experiments import EXPERIMENTS, SUITES, run_suites
from .greedy import gap_witness
from .pallen import minimal_factorizations
from .profiles import build_profile
from .streams import DSL_GRAMMAR, InfiniteWord, parse_spec
from .words import Word, render, render_style

SCHEMA_VERSION = 1

# Text of the small ints that count arrays hold, looked up in C by ``_dump``.
_SMALL_INTS = {i: repr(i) for i in range(1024)}


def _emit(text: str | list[str], out_path: str | None) -> None:
    """Write ``text``, or the pieces of a JSON document in order, to
    ``out_path`` or stdout.  A file that cannot be written is a usage error
    (exit 2), not a failed claim."""
    pieces = [text] if isinstance(text, str) else text
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.writelines(pieces)


def _dump(obj, indent: str, memo: dict, out: list) -> None:
    """Append ``json.dumps(obj, indent=2)``, nested ``indent`` deep, to
    ``out``, byte for byte.

    With ``indent`` the json module always runs its pure-Python encoder; this
    writer renders the shapes the reports consist of (dicts with str keys,
    lists of ints, lists of int lists such as spans) with C-level joins, and
    hands everything else to ``json.dumps``.  It appends pieces instead of
    nesting strings, and the pieces are written as they are, never joined,
    so a large document is held once.
    ``memo`` lives for one document; see ``_rows``.
    """
    inner = indent + "  "
    cls = type(obj)
    if cls is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("{}")
            return
        sep = "{\n" + inner
        for k, v in obj.items():
            out.append(sep + json.dumps(k) + ": ")
            _dump(v, inner, memo, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif cls is list or cls is tuple:
        if not obj:
            out.append("[]")
            return
        kinds = set(map(type, obj))
        sep = ",\n" + inner
        out.append("[\n" + inner)
        if kinds == {int}:
            try:
                out.append(sep.join(map(_SMALL_INTS.__getitem__, obj)))
            except KeyError:  # a negative or a large int
                out.append(sep.join(map(int.__repr__, obj)))
        elif (kinds <= {list, tuple} and obj[0] and type(obj[0][0]) is int
              and (texts := _rows(obj, inner, memo)) is not None):
            # rows of ints, such as the spans of one decomposition
            out.append(sep.join(texts))
        else:
            for i, v in enumerate(obj):
                if i:
                    out.append(sep)
                _dump(v, inner, memo, out)
        out.append("\n" + indent + "]")
    else:
        # JSON text holds no raw newline, so re-indenting is a plain replace
        out.append(json.dumps(obj, indent=2).replace("\n", "\n" + indent))


def _rows(rows, indent: str, memo: dict) -> list[str] | None:
    """The text of each row in ``rows``, ``indent`` deep, or None unless
    the rows not rendered before are equally long non-empty int rows.

    ``memo[indent]`` maps the id of each row already rendered at that indent
    in this document to its text, and is looked up in C: a decomposition
    report repeats each span object many times.  Identity, unlike equality,
    never lets ``(1, True)`` stand in for ``(1, 1)``, and every row is an
    object of the document being written, so no id is reused while the memo
    lives.
    """
    seen = memo.setdefault(indent, {})
    texts = list(map(seen.get, map(id, rows)))
    missing = list(compress(range(len(rows)), map(is_, texts, repeat(None))))
    if not missing:
        return texts
    new = list(map(rows.__getitem__, missing))
    if not _equal_int_rows(new):
        return None
    # every new row is k ints: one %d template renders a whole row
    deep = indent + "  "
    row = (",\n" + deep).join(["%d"] * len(new[0]))
    rendered = list(map(f"[\n{deep}{row}\n{indent}]".__mod__, map(tuple, new)))
    seen.update(zip(map(id, new), rendered))
    if len(new) == len(rows):
        return rendered
    for i, text in zip(missing, rendered):
        texts[i] = text
    return texts


def _equal_int_rows(rows) -> bool:
    """True iff ``rows`` are non-empty, equally long and hold only ints
    (``bool`` excluded)."""
    lengths = set(map(len, rows))
    return (len(lengths) == 1 and 0 not in lengths
            and set(map(type, chain.from_iterable(rows))) == {int})


def _json_doc(payload: dict) -> list[str]:
    """The pieces of the JSON report of ``payload``, in order."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    out: list[str] = []
    _dump(doc, "", {}, out)
    out.append("\n")
    return out


class _SpanText(dict):
    """Text of each span (1-based, inclusive) of a word in the notation of
    the whole word, rendered once per distinct span."""

    def __init__(self, w: Word):
        super().__init__()
        style = render_style(w)
        # the symbols' texts: ints are joined with '.', letters and digits abut
        self.symbols = list(map(str, w)) if style == "ints" else render(w, style)
        self.sep = "." if style == "ints" else ""

    def __missing__(self, span) -> str:
        start, end = span
        text = self[span] = self.sep.join(self.symbols[start - 1 : end])
        return text

    def line(self, spans) -> str:
        return " . ".join(map(self.__getitem__, spans))


def _need_finite(spec: str, cap: int | None) -> Word:
    obj = parse_spec(spec, cap)
    if isinstance(obj, InfiniteWord):
        raise ParseError(
            f"{spec!r} is a stream; this command needs a finite word "
            f"(try lit:... or use `profile`/`bounds` with --horizon)",
            token=spec,
        )
    return obj


def cmd_len(args) -> int:
    w = _need_finite(args.word, args.cap)
    p, lg, rg = gap_witness(w)
    if args.format == "json":
        _emit(_json_doc({"command": "len", "word": str(w), "pal": p,
                         "lgpal": lg, "rgpal": rg}), args.out)
    elif args.format == "csv":
        _emit(f"pal,lgpal,rgpal\n{p},{lg},{rg}\n", args.out)
    else:
        _emit(f"pal={p} lgpal={lg} rgpal={rg}\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    w = _need_finite(args.word, args.cap)
    facts = minimal_factorizations(w, args.limit)
    left, right = facts.left_greedy, facts.right_greedy
    if args.format == "json":
        _emit(
            _json_doc({
                "command": "decompose",
                "word": str(w),
                "minimal": facts.to_json(),
                "left_greedy": {"side": "left", "spans": left.spans},
                "right_greedy": {"side": "right", "spans": right.spans},
            }),
            args.out,
        )
    else:
        text = _SpanText(w)
        lines = [f"word: {w}",
                 f"pal={facts.count} lgpal={len(left)} rgpal={len(right)}",
                 f"minimal decompositions ({len(facts)}"
                 f"{', truncated' if facts.truncated else ''}):"]
        lines.extend("  " + text.line(dec.spans) for dec in facts)
        lines.append("left greedy:  " + text.line(left.spans))
        lines.append("right greedy: " + text.line(right.spans))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_profile(args) -> int:
    source = parse_spec(args.word, args.cap)
    profile = build_profile(source, args.horizon)
    if args.format == "json":
        _emit(_json_doc({"command": "profile", **profile.to_json()}), args.out)
    elif args.format == "csv":
        _emit(profile.to_csv(), args.out)
    else:
        attained = {k: v for k, v in profile.first_attainment.items() if v is not None}
        doc = profile.to_json()  # its maxima are 0 for an empty profile
        lines = [
            f"word: {profile.word_spec}",
            f"horizon: {profile.horizon}",
            f"max pal={doc['max_pal']} lgpal={doc['max_lgpal']} "
            f"rgpal={doc['max_rgpal']}",
            "first attainment: "
            + " ".join(f"m({k})={v}" for k, v in sorted(attained.items())),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bounds(args) -> int:
    source = parse_spec(args.word, args.cap)
    report = bound_report(source, args.horizon, args.window)
    try:
        cls = classify_bound2(source, args.horizon, args.window, report=report)
        classification = cls.to_json()
    except AmbiguousHorizon as exc:
        classification = {"error": str(exc)}
    if args.format == "json":
        _emit(_json_doc({"command": "bounds", "report": report.to_json(),
                         "classification": classification}), args.out)
    else:
        lines = [
            f"word: {report.word_spec}",
            f"prefix_max={report.prefix_max} factor_max={report.factor_max} "
            f"(window {report.factor_window}, horizon {report.horizon})",
        ]
        for key, verdict in report.verdicts.items():
            lines.append(f"check {key}: {verdict}")
        fam = classification.get("family")
        if classification.get("error"):
            lines.append(f"classification: {classification['error']}")
        elif fam:
            lines.append(f"classification: {fam} {classification['params']}")
            if classification.get("bplf2"):
                lines.append(f"isolated-letter form: {classification['bplf2']}")
        else:
            lines.append("classification: no closed form")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_next(args) -> int:
    w = _need_finite(args.word, args.cap)
    ns = enumerate_next(w, args.max_len)
    if args.format == "json":
        _emit(
            _json_doc({
                "command": "next",
                "base": str(ns.base),
                "max_len": ns.max_len,
                "palindromes": [str(p) for p in ns.palindromes],
                "open_branches": [str(p) for p in ns.open_branches],
            }),
            args.out,
        )
    else:
        lines = [f"base: {ns.base} (cap {ns.max_len})",
                 f"palindromes ({len(ns.palindromes)}):"]
        lines.extend(f"  {p}" for p in ns.palindromes)
        lines.append(f"open branches ({len(ns.open_branches)}):")
        lines.extend(f"  {p}" for p in ns.open_branches)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _suite_names(tokens: list[str], universe) -> list[str]:
    """The named suites, with ``all`` (or no name) standing for every one."""
    return [name for token in tokens or ["all"]
            for name in (universe if token == "all" else (token,))]


def cmd_verify(args) -> int:
    names = _suite_names(args.suites, SUITES)
    results = run_suites(names, seed=args.seed)
    failed = False
    lines = []
    for res in results:
        for claim in res.claims:
            mark = {"pass": "PASS", "fail": "FAIL", "horizon-limited": "INFO"}[claim.status]
            lines.append(
                f"[{mark}] {res.name}: {claim.description} "
                f"(expected={claim.expected}, observed={claim.observed})"
            )
            if claim.status == "fail":
                failed = True
        lines.append(f"[{'OK' if res.ok else 'FAILED'}] suite {res.name} "
                     f"({len(res.claims)} claims)")
    if args.format == "json":
        _emit(_json_doc({"command": "verify",
                         "results": [r.to_json(timings=args.timings)
                                     for r in results]}), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def cmd_experiments(args) -> int:
    names = _suite_names(args.suites, EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ParseError(f"unknown experiments: {', '.join(unknown)}",
                         token=unknown[0])
    results = run_suites(names, seed=args.seed)
    doc = _json_doc({"command": "experiments",
                     "results": [r.to_json(timings=args.timings)
                                 for r in results]})
    failed = any(not r.ok for r in results)
    # the JSON report always exists; --out captures it, text mode adds a
    # per-claim summary on stdout
    if args.out:
        _emit(doc, args.out)
    if args.format == "text":
        lines = []
        for res in results:
            status = "ok" if res.ok else "FAILED"
            timing = f", {res.runtime:.2f}s" if args.timings else ""
            lines.append(f"{res.name}: {status} ({len(res.claims)} claims"
                         f"{timing})")
            for claim in res.claims:
                lines.append(f"  [{claim.status}] {claim.description}: "
                             f"{claim.observed}")
        _emit("\n".join(lines) + "\n", None)
    elif not args.out:
        _emit(doc, None)
    return 1 if failed else 0


def _add_output(sp, formats):
    # every command lists all three formats, so help and usage keep one
    # shape; main rejects those the command cannot render
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.set_defaults(formats=formats)
    sp.add_argument("--out", default=None, help="write output to a file")


def _add_common(sp, horizon_default=None, formats=("text", "csv", "json")):
    """Options of the commands that read a word."""
    _add_output(sp, formats)
    sp.add_argument("--cap", type=int, default=None,
                    help="override the materialization cap")
    if horizon_default is not None:
        sp.add_argument("--horizon", type=int, default=horizon_default)


_TEXT_JSON = ("text", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palfact",
        description="Palindromic factorization toolkit",
        epilog=DSL_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("len", help="minimum and greedy palindromic factor "
                                    "counts of a finite word")
    sp.add_argument("word")
    _add_common(sp)
    sp.set_defaults(func=cmd_len)

    sp = sub.add_parser("decompose", help="minimal and greedy palindromic "
                                          "decompositions of a finite word")
    sp.add_argument("word")
    sp.add_argument("--limit", type=int, default=100,
                    help="cap on enumerated minimal decompositions")
    _add_common(sp, formats=_TEXT_JSON)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("profile", help="per-prefix factor counts of a stream, "
                                        "with first-attainment lengths")
    sp.add_argument("word")
    _add_common(sp, horizon_default=1000)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("bounds", help="prefix/factor bound report and "
                                       "closed-form classification")
    sp.add_argument("word")
    sp.add_argument("--window", type=int, default=100,
                    help="factor window for the factor maximum")
    _add_common(sp, horizon_default=1000, formats=_TEXT_JSON)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("next", help="palindromes extending a binary word "
                                     "within the two-factor prefix bound")
    sp.add_argument("word")
    sp.add_argument("--max-len", type=int, default=32, dest="max_len")
    _add_common(sp, formats=_TEXT_JSON)
    sp.set_defaults(func=cmd_next)

    sp = sub.add_parser("verify", help="run verification suites "
                                       f"({', '.join(sorted(SUITES))})")
    sp.add_argument("suites", nargs="*", default=(),
                    help="suite names, or 'all'")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte-identical "
                         "reruns)")
    _add_output(sp, _TEXT_JSON)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("experiments", help="run the named experiments and "
                                            "emit JSON reports "
                                            f"({', '.join(EXPERIMENTS)})")
    sp.add_argument("suites", nargs="*", default=())
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte-identical "
                         "reruns)")
    _add_output(sp, _TEXT_JSON)
    sp.set_defaults(func=cmd_experiments)

    return parser


# Built by the first main call.  parse_args reads a parser and changes
# nothing in it, so every later call in the process reuses this one.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.format not in args.formats:
            raise ParseError(f"{args.command} supports --format "
                             f"{' or '.join(args.formats)}, not {args.format}")
        return args.func(args)
    except (ParseError, CapExceeded, SearchCapExceeded, AmbiguousHorizon,
            WorkerDied, ValueError) as exc:
        token = getattr(exc, "token", None)
        suffix = f" (token: {token})" if token else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
