"""Span and counter recorder for the traced run, installed from outside.

The program carries no tracing of its own, so the benchmark wraps the public
functions of each ``palfact`` module.  ``palfact`` imports names with
``from .x import y``, so a wrapper has to replace every module attribute that
holds the original object; classes are patched once, on the class.

Two kinds of wrapper:

* a span records (name, start, end, parent, leaf time inside) in memory;
* a leaf, for functions called up to millions of times per pass, only adds
  its call count and time to running totals, and its time to the enclosing
  span so that the span's self time excludes it.  Leaves call no traced
  function, so leaf time is never counted twice.

Self time of a span is its duration minus its child spans and leaves.  A
function's inclusive time counts only spans with no ancestor of the same
name, so recursion and helpers that call each other are not double counted.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, leaf_time]
        self.stack: list[int] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, seconds
        self.counters: Counter = Counter()
        self.largest_build = (-1, [], False)  # (nodes, symbols, track_min)

    def count(self, key: str, k=1) -> None:
        self.counters[key] += k

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of the call's
        arguments; ``after(rec, args, kwargs, result)`` updates counters."""
        spans, stack = self.spans, self.stack
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            rec = [name if fixed else name(args, kwargs), 0.0, 0.0,
                   stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        totals = self.leaves[name]
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    # -- derived figures -------------------------------------------------

    def summary(self) -> dict:
        """Per-name inclusive time, self time, outermost span count, and
        the count of index builds directly inside a windowed-max span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Counter = Counter()
        self_t: Counter = Counter()
        calls: Counter = Counter()
        windows_distinct = 0
        for i, (name, start, end, parent, leaf_t) in enumerate(spans):
            dur = end - start
            self_t[name] += dur - child[i] - leaf_t
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur
                calls[name] += 1
            if (name == "eertree.index_build_min" and parent >= 0
                    and spans[parent][0] == "analysis.windowed_max"):
                windows_distinct += 1
        return {"incl": incl, "self": self_t, "calls": calls,
                "windows_distinct": windows_distinct}


# --------------------------------------------------------------------------
# Installing and removing wrappers
# --------------------------------------------------------------------------


class Patches:
    """Replacements made on modules, classes and dicts, undone in reverse."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key], "item"))
        mapping[key] = value

    def everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded palfact module namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "palfact" or modname.startswith("palfact.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            entry = self._undo.pop()
            if len(entry) == 4:
                entry[0][entry[1]] = entry[2]
            else:
                setattr(entry[0], entry[1], entry[2])


def _index_build_name(args, kwargs) -> str:
    track = kwargs.get("track_min", args[2] if len(args) > 2 else False)
    return "eertree.index_build_min" if track else "eertree.index_build"


def _after_index_build(rec, args, kwargs, result) -> None:
    idx = args[0]
    nodes = idx.node_count()
    rec.count("eertree.symbols_indexed", len(idx))
    rec.count("eertree.nodes", nodes)
    if nodes > rec.largest_build[0]:
        track_min = _index_build_name(args, kwargs).endswith("_min")
        rec.largest_build = (nodes, idx.word, track_min)


def _count_result(key, measure):
    def after(rec, args, kwargs, result):
        rec.count(key, measure(result))
    return after


def _count_arg(key, measure):
    def after(rec, args, kwargs, result):
        rec.count(key, measure(args[0]))
    return after


def _after_next(rec, args, kwargs, result) -> None:
    rec.count("analysis.next_members", len(result.palindromes))
    rec.count("analysis.next_open_branches", len(result.open_branches))


def install(rec: Recorder) -> Patches:
    """Wrap every traced function of palfact; returns the undo record."""
    from palfact import (analysis, eertree, engine, experiments, greedy, oracles,
                         pallen, profiles, streams, words)

    p = Patches()
    # (module, attribute, span name, after-hook) for module-level functions
    functions = [
        (streams, "parse_spec", "streams.parse", None),
        (streams, "materialize", "streams.materialize",
         _count_result("streams.symbols", len)),
        (pallen, "pal_fast", "pallen.pal_fast", None),
        (pallen, "pal_dp", "pallen.pal_dp", None),
        (pallen, "minimal_factorizations", "pallen.minfact",
         _count_result("pallen.minfact_decompositions", len)),
        (greedy, "lgpal_profile", "greedy.lgpal_profile",
         _count_result("greedy.lgpal_strip_steps", sum)),
        (greedy, "rgpal_profile", "greedy.rgpal_profile", None),
        (greedy, "lgpal", "greedy.single", None),
        (greedy, "rgpal", "greedy.single", None),
        # not reported; keeps greedy_profile out of build_profile's self time
        (greedy, "greedy_profile", "greedy.greedy_profile", None),
        (profiles, "build_profile", "profiles.build_profile", None),
        (engine, "palindromic_prefixes", "engine.pal_prefixes", None),
        (analysis, "bound_report", "analysis.bound_report", None),
        (analysis, "_windowed_factor_max", "analysis.windowed_max",
         _count_arg("analysis.windows_total", len)),
        (analysis, "classify_bound2", "analysis.classify", None),
        (analysis, "enumerate_next", "analysis.enumerate_next", _after_next),
    ]
    functions += [(oracles, name, "oracles.brute", None)
                  for name in sorted(vars(oracles)) if name.startswith("brute_")]
    for mod, attr, name, after in functions:
        original = getattr(mod, attr)
        p.everywhere(original, rec.span(name, original, after))

    for suite, fn in list(experiments.SUITES.items()):
        p.set_item(experiments.SUITES, suite, rec.span(f"experiments.{suite}", fn))

    Index = eertree.PalindromeIndex
    p.set(Index, "__init__", rec.span(_index_build_name, Index.__init__, _after_index_build))
    p.set(Index, "longest_suffix_leq", rec.leaf("eertree.suffix_leq", Index.longest_suffix_leq))
    Shared = eertree.SharedEertree
    p.set(Shared, "advance", rec.leaf("eertree.shared_advance", Shared.advance))
    Word = words.Word
    p.set(Word, "__new__", staticmethod(rec.leaf("words.word_new", Word.__new__)))
    return p


def build_peak_mb(symbols, track_min: bool) -> float:
    """tracemalloc peak of building one index.  tracemalloc slows a build
    some thirtyfold, so only the node-richest build of a pass is replayed."""
    from palfact.eertree import PalindromeIndex

    tracemalloc.start()
    try:
        PalindromeIndex(symbols, track_min=track_min)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


SUITE_NAMES = ("bound2", "evperiodic", "floors", "gaps", "greedy", "ladder", "lps",
               "multibonacci", "nextsets", "occdiff", "oracles", "uword")

# Per-layer metrics in report order: (name, unit)
LAYER_METRICS = [
    ("eertree.index_build_s", "s"),
    ("eertree.index_build_min_s", "s"),
    ("eertree.index_builds", "count"),
    ("eertree.symbols_indexed", "count"),
    ("eertree.nodes", "count"),
    ("eertree.peak_alloc_mb", "MB"),
    ("eertree.suffix_leq_calls", "count"),
    ("eertree.suffix_leq_s", "s"),
    ("eertree.shared_advance_calls", "count"),
    ("eertree.shared_advance_s", "s"),
    ("greedy.lgpal_profile_s", "s"),
    ("greedy.lgpal_strip_steps", "count"),
    ("greedy.rgpal_profile_s", "s"),
    ("greedy.single_s", "s"),
    ("profiles.build_profile_self_s", "s"),
    ("engine.pal_prefixes_s", "s"),
    ("analysis.bound_report_calls", "count"),
    ("analysis.bound_report_s", "s"),
    ("analysis.windowed_max_s", "s"),
    ("analysis.windows_total", "count"),
    ("analysis.windows_distinct", "count"),
    ("analysis.window_hit_ratio", "ratio"),
    ("analysis.classify_self_s", "s"),
    ("analysis.enumerate_next_s", "s"),
    ("analysis.next_members", "count"),
    ("analysis.next_open_branches", "count"),
    ("pallen.pal_fast_s", "s"),
    ("pallen.pal_dp_s", "s"),
    ("pallen.minfact_s", "s"),
    ("pallen.minfact_decompositions", "count"),
    ("words.word_new_calls", "count"),
    ("words.word_new_s", "s"),
    ("streams.materialize_s", "s"),
    ("streams.parse_s", "s"),
    ("streams.symbols", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    *[(f"experiments.{s}_s", "s") for s in SUITE_NAMES],
    ("oracles.brute_s", "s"),
    ("oracles.brute_calls", "count"),
    ("trace.overhead_frac", "ratio"),
]


def layer_values(rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced pass, except the two the caller
    measures separately: peak_alloc_mb and overhead_frac."""
    s = rec.summary()
    incl, self_t, calls, c = s["incl"], s["self"], s["calls"], rec.counters
    leaf = rec.leaves
    total = c["analysis.windows_total"]
    out = {
        "eertree.index_build_s": incl["eertree.index_build"],
        "eertree.index_build_min_s": incl["eertree.index_build_min"],
        "eertree.index_builds": calls["eertree.index_build"] + calls["eertree.index_build_min"],
        "eertree.symbols_indexed": c["eertree.symbols_indexed"],
        "eertree.nodes": c["eertree.nodes"],
        "eertree.suffix_leq_calls": leaf["eertree.suffix_leq"][0],
        "eertree.suffix_leq_s": leaf["eertree.suffix_leq"][1],
        "eertree.shared_advance_calls": leaf["eertree.shared_advance"][0],
        "eertree.shared_advance_s": leaf["eertree.shared_advance"][1],
        "greedy.lgpal_profile_s": incl["greedy.lgpal_profile"],
        "greedy.lgpal_strip_steps": c["greedy.lgpal_strip_steps"],
        "greedy.rgpal_profile_s": incl["greedy.rgpal_profile"],
        "greedy.single_s": incl["greedy.single"],
        "profiles.build_profile_self_s": self_t["profiles.build_profile"],
        "engine.pal_prefixes_s": incl["engine.pal_prefixes"],
        "analysis.bound_report_calls": calls["analysis.bound_report"],
        "analysis.bound_report_s": incl["analysis.bound_report"],
        "analysis.windowed_max_s": incl["analysis.windowed_max"],
        "analysis.windows_total": total,
        "analysis.windows_distinct": s["windows_distinct"],
        "analysis.window_hit_ratio": (1 - s["windows_distinct"] / total) if total else 0.0,
        "analysis.classify_self_s": self_t["analysis.classify"],
        "analysis.enumerate_next_s": incl["analysis.enumerate_next"],
        "analysis.next_members": c["analysis.next_members"],
        "analysis.next_open_branches": c["analysis.next_open_branches"],
        "pallen.pal_fast_s": incl["pallen.pal_fast"],
        "pallen.pal_dp_s": incl["pallen.pal_dp"],
        "pallen.minfact_s": incl["pallen.minfact"],
        "pallen.minfact_decompositions": c["pallen.minfact_decompositions"],
        "words.word_new_calls": leaf["words.word_new"][0],
        "words.word_new_s": leaf["words.word_new"][1],
        "streams.materialize_s": incl["streams.materialize"],
        "streams.parse_s": incl["streams.parse"],
        "streams.symbols": c["streams.symbols"],
        "cli.self_s": self_t["cli.op"],
        "cli.output_bytes": c["cli.output_bytes"],
        "oracles.brute_s": incl["oracles.brute"],
        "oracles.brute_calls": calls["oracles.brute"],
    }
    for suite in SUITE_NAMES:
        out[f"experiments.{suite}_s"] = incl[f"experiments.{suite}"]
    return out
