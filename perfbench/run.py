"""palfact benchmark: one workload, one seed, a closed loop of CLI ops.

    python3 perfbench/run.py --workload finite-words --seed 1 --seconds 12 --trace 0

One client, one process, one thread: each op is a ``palfact.cli.main(argv)``
call with stdout and stderr captured, started only after the previous op has
finished.  The run repeats passes over the workload's op list until
``--seconds`` have been spent in ops, then checks every op's output against
an independent reference (outside the timed region) and prints the metrics.
Each timed sample is scaled to a fixed host speed by a probe loop timed just
before and just after it (see ``probe``), because the shared host's speed
drifts by tens of percent over a run.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
SETUP_PER_PASS = 2
PROBE_LOOPS = 20_000
PROBE_TABLE_KEYS = 1 << 16
PROBE_LOOKUPS = 4_000
# About the probe's median time on a 2-vCPU shared x86 host under Python
# 3.11.7 (2.7 to 3.2 ms over ten finite-words runs).  Scaled times read in
# seconds at that speed.
PROBE_REF_S = 0.003
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import palfact.cli; palfact.cli.build_parser()")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class OpResult:
    """What one op left behind: exit code (or exception type) and output."""

    __slots__ = ("rc", "error", "out")

    def __init__(self, rc, error, out):
        self.rc, self.error, self.out = rc, error, out


def call(entry, op: workloads.Op):
    """Run one op through ``entry`` (``palfact.cli.main``, or its traced
    wrapper); returns (seconds, OpResult).  Every exception is caught,
    recorded by type and turned into a failed op."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = entry(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - the loop must survive any op
        rc, error = None, type(exc).__name__
    dt = time.perf_counter() - t0
    return dt, OpResult(rc, error, out.getvalue())


def _probe_data():
    rng = random.Random(0)
    table = {rng.getrandbits(40): i for i in range(PROBE_TABLE_KEYS)}
    keys = list(table)
    rng.shuffle(keys)
    return table, keys[:PROBE_LOOKUPS]


PROBE_TABLE, PROBE_KEYS = _probe_data()


def probe() -> float:
    """Seconds taken by fixed pure-Python work, the host's current speed: an
    integer loop, which tracks how fast the interpreter runs, and random
    lookups in a dict larger than a core's caches, which track how much the
    host's other tenants slow memory access.  Neither allocates a container,
    so the probe never triggers a collection."""
    table, keys = PROBE_TABLE, PROBE_KEYS
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    for k in keys:
        x += table[k]
    return time.perf_counter() - t0


class Sample:
    """A raw time and the probe times taken just before and just after it."""

    __slots__ = ("raw", "scaled")

    def __init__(self, raw, before, after):
        self.raw = raw
        self.scaled = raw * 2 * PROBE_REF_S / (before + after)


def launch_setup() -> Sample:
    """Time of a fresh interpreter that imports the CLI and builds its
    parser."""
    before = probe()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL)
    raw = time.perf_counter() - t0
    return Sample(raw, before, probe())


def percentile(sorted_values, q):
    """Percentile of an ascending list, interpolating between neighbours
    (with few ops per pass a nearest-rank percentile is one op's time)."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        from palfact.cli import main

        self.main = main
        self.ops = workloads.make_ops(workload, seed)
        self.seconds = seconds
        self.first: list[OpResult] = []  # first pass, output compressed
        self.digests: list[bytes] = []
        self.mismatched_passes = Counter()  # op index -> passes whose output changed
        self.errors = Counter()

    def record(self, i: int, res: OpResult) -> None:
        """Keep the first pass's output (compressed) and a digest of every
        later pass's output, so later passes can be compared without holding
        their text."""
        if res.error:
            self.errors[res.error] += 1
        data = res.out.encode()
        digest = hashlib.blake2b(data, digest_size=16).digest()
        if len(self.first) <= i:
            self.first.append(OpResult(res.rc, res.error, zlib.compress(data, 1)))
            self.digests.append(digest)
        elif (digest, res.rc, res.error) != (self.digests[i], self.first[i].rc,
                                             self.first[i].error):
            self.mismatched_passes[i] += 1

    def one_pass(self, entry=None) -> list[Sample]:
        """One pass over the ops through ``entry`` (default: untraced), with
        the probe run between ops."""
        samples, before = [], probe()
        for i, op in enumerate(self.ops):
            dt, res = call(entry or self.main, op)
            after = probe()
            self.record(i, res)
            samples.append(Sample(dt, before, after))
            before = after
        return samples

    def timed_passes(self):
        """Each op's samples over the passes, and the set-up launches.
        Another pass starts while at least half of it (at the mean raw pass
        time) fits in the run's seconds.  The launches are spread between the
        passes so that they sample the same stretch of time as the ops."""
        walls, per_op, setup = [], [[] for _ in self.ops], []
        while not walls or sum(walls) + statistics.mean(walls) / 2 < self.seconds:
            setup += [launch_setup() for _ in range(SETUP_PER_PASS)]
            samples = self.one_pass()
            walls.append(sum(s.raw for s in samples))
            for op_samples, sample in zip(per_op, samples):
                op_samples.append(sample)
        setup += [launch_setup() for _ in range(SETUP_LAUNCHES - len(setup))]
        return walls, per_op, setup

    def sizes(self) -> list[int]:
        """Input units per op: symbols, or claims checked for verify."""
        return [op.size or workloads.verify_claims(self.output(i))
                for i, op in enumerate(self.ops)]

    def output(self, i: int) -> str:
        return zlib.decompress(self.first[i].out).decode()

    def check(self) -> tuple[int, int, list[str]]:
        """(ops failed per pass, ops with wrong output, problem notes)."""
        failed = wrong = 0
        notes = []
        for i, op in enumerate(self.ops):
            first = self.first[i]
            if first.error:
                failed += 1
                notes.append(f"op {i} ({op.kind}, {op.size}): raised {first.error}")
                continue
            problems = workloads.check(op, first.rc, self.output(i))
            if self.mismatched_passes[i]:
                problems.append(f"output changed in {self.mismatched_passes[i]} passes")
            if problems:
                failed += 1
                wrong += first.rc == 0
                notes.append(f"op {i} ({op.kind}, {op.size}): " + "; ".join(problems))
        return failed, wrong, notes


def end_to_end(run: Run, op_times, setup) -> dict:
    """End-to-end figures from scaled times.  Each op's time is its median
    over the run's passes, which a stall or a short fast stretch of the host
    does not move.  ``wall_s`` is one pass at those times; latency
    percentiles are taken over the ops."""
    ordered = sorted(op_times)
    wall = sum(op_times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(s.scaled for s in setup),
        "wall_s": wall,
        "throughput_per_s": sum(run.sizes()) / wall,
        "op_p50_ms": 1000 * percentile(ordered, 50),
        "op_p90_ms": 1000 * percentile(ordered, 90),
        "peak_rss_mb": rss_kb / 1024,
    }


def traced(run: Run):
    """Alternate untraced and traced passes for the run's time; returns the
    per-layer values (medians over the traced passes) and the pass count."""
    untraced, traced_walls, layers = [], [], []
    while not traced_walls or sum(untraced) + sum(traced_walls) < run.seconds:
        untraced.append(sum(s.raw for s in run.one_pass()))
        rec = tracer.Recorder()
        patches = tracer.install(rec)
        op_span = rec.span("cli.op", run.main)
        try:
            samples = run.one_pass(op_span)
        finally:
            patches.undo()
        traced_walls.append(sum(s.raw for s in samples))
        rec.count("cli.output_bytes",
                  sum(len(zlib.decompress(r.out)) for r in run.first))
        layers.append(tracer.layer_values(rec))
    values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    values["eertree.peak_alloc_mb"] = tracer.build_peak_mb(*rec.largest_build[1:])
    base = statistics.median(untraced)
    values["trace.overhead_frac"] = (statistics.median(traced_walls) - base) / base
    print(f"# tracing overhead: traced pass {statistics.median(traced_walls):.3f} s "
          f"vs untraced {base:.3f} s (median of {len(traced_walls)} each)")
    return values, len(traced_walls) + len(untraced)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time to spend in ops; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced replay")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "palfact", "cli.py")):
        print(f"error: no palfact sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed, args.seconds)
    # Collections inside an op should traverse what a fresh CLI process
    # holds, not the benchmark's own objects.
    gc.freeze()
    if args.trace:
        values, passes = traced(run)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracer.LAYER_METRICS}
    else:
        walls, per_op, setup = run.timed_passes()
        passes = len(walls)
        op_times = [statistics.median(s.scaled for s in samples) for samples in per_op]
        values = end_to_end(run, op_times, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        beyond = sum(1 for t in op_times if 1000 * t > values["op_p90_ms"])
        print(f"# {passes} passes of {len(run.ops)} ops; latency samples {len(op_times)} "
              f"(per-op medians), {beyond} beyond p90; setup launches {len(setup)}")
        raw_wall = sum(statistics.median(s.raw for s in samples) for samples in per_op)
        print(f"# unscaled: wall_s {raw_wall:.4f} s, setup_s "
              f"{statistics.median(s.raw for s in setup):.4f} s; host speed factor "
              f"{raw_wall / values['wall_s']:.3f} (probe time / {PROBE_REF_S} s)")

    t0 = time.perf_counter()
    failed, wrong, notes = run.check()
    print(f"# output checks took {time.perf_counter() - t0:.1f} s")
    for note in notes:
        print(f"# {note}")
    attempted = len(run.ops)
    print(f"# fail_frac {failed / attempted:.4f} ({failed} of {attempted} ops per pass; "
          f"exceptions by type over all {passes} passes: {dict(run.errors)})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted * passes,
                      "failed": failed * passes, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
