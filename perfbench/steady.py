"""Steadiness check: repeat each workload over several seeds and compare the
spread of every end-to-end metric with the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --sets 2 --out perfbench/baseline.json

Each set runs every workload once per seed (seeds 1-10, then 11-20 for the
second set).  For each workload and metric it prints the median, the
quartiles and the spread (q3 - q1) / median of the runs, as
``statistics.quantiles(n=4)`` gives them.  A metric is steady when its spread
is under a third of its bound, and, with ``--sets 2``, when the second set's
median is not worse than the first's by more than the bound.  ``setup_s`` is
held to the second rule only: set-up time is gated on how far its median
moves, so its spread is printed and recorded but does not make a
workload unsteady.  The last lines name the workloads that are not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = 10  # runs per workload in a set


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} gave wrong output:\n{proc.stdout}")
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    return (second - first) / first if better == "lower" else (first - second) / first


def input_sizes(workload: str) -> dict:
    """Op count and summed input size per op kind for seed 1."""
    out: dict = {}
    for op in workloads.make_ops(workload, 1):
        entry = out.setdefault(op.kind, {"ops": 0, "symbols": 0})
        entry["ops"] += 1
        entry["symbols"] += op.size
    return out


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--out", default=None, help="write provenance and results as JSON")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    report: dict = {}
    unsteady: dict[str, list[str]] = {}
    for name in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in range(1 + k * SEEDS, 1 + (k + 1) * SEEDS):
                res = run_once(bench, name, seed)
                runs.append(res)
                print(f"{name} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in res["metrics"].items())
                    + f" failed={res['failed']}/{res['attempted']}"
                    + f" run took {res['elapsed_s']:.1f} s", flush=True)
            sets.append(runs)
        entry = report[name] = {}
        for m in metrics:
            key, bound = m["name"], m["bound"]
            rows = []
            for k, runs in enumerate(sets):
                med, q1, q3, sp = spread([r["metrics"][key]["value"] for r in runs])
                rows.append({"median": med, "q1": q1, "q3": q3, "spread": sp})
                if key != "setup_s" and sp > bound / 3:
                    unsteady.setdefault(name, []).append(
                        f"{key} spread {sp:.3f} > bound/3 {bound / 3:.3f} (set {k + 1})")
                print(f"  {name:16s} {key:18s} set {k + 1}: median {med:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} spread {sp:.3f} (bound {bound})")
            if len(rows) == 2:
                drift = worse_by(rows[0]["median"], rows[1]["median"], m["better"])
                rows.append({"second_worse_by": drift})
                print(f"  {name:16s} {key:18s} second median worse by {drift:+.3f}")
                if drift > bound:
                    unsteady.setdefault(name, []).append(
                        f"{key} second median worse by {drift:.3f} > bound {bound}")
            entry[key] = rows
        entry["fail_frac"] = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                              for runs in sets]
        entry["run_elapsed_s_max"] = max(r["elapsed_s"] for runs in sets for r in runs)
    for name in names:
        if name in unsteady:
            print(f"NOT STEADY {name}: " + "; ".join(unsteady[name]))
        else:
            print(f"steady {name}")
    if args.out:
        doc = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "seeds": [1, SEEDS * args.sets],
            "workloads": {n: {"why": workloads.WHY[n],
                              "input_sizes_seed_1": input_sizes(n)} for n in names},
            "results": report,
            "not_steady": unsteady,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
