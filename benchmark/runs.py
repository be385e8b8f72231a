#!/usr/bin/env python3
"""Repeated benchmark runs and their spread.

Runs the command in BENCHMARK.json once per seed and workload, in one or
more checkouts, and prints, per checkout, workload and metric, the median
and quartiles of the values (Python's statistics.quantiles, n=4) and the
spread: the quartile distance as a share of the median.

    python3 benchmark/runs.py --runs 10 --first-seed 1
    python3 benchmark/runs.py --runs 10 --checkout ../parent --checkout .

With several checkouts, each seed runs in every checkout, and the order
alternates from one seed to the next (parent first, then change first).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(checkout, command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summary(values):
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--checkout", action="append")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    a = p.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    checkouts = a.checkout or ["."]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    results = {c: {w: [] for w in workloads} for c in checkouts}
    for i in range(a.runs):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for w in workloads:
            for c in order:
                r = run_once(c, bench["command"], w, a.first_seed + i,
                             bench["run_seconds"], a.trace)
                results[c][w].append(r)
                print(f"{c} {w} seed {a.first_seed + i}: {r['wall_s']:.1f} s, "
                      f"{r['attempted']} ops, {r['failed']} failed", file=sys.stderr)
    report = {}
    for c in checkouts:
        for w in workloads:
            runs = results[c][w]
            metrics = {m: summary([r["metrics"][m]["value"] for r in runs])
                       for m in runs[0]["metrics"]}
            metrics["wall_s"] = summary([r["wall_s"] for r in runs])
            report.setdefault(c, {})[w] = {
                "seeds": [a.first_seed + i for i in range(a.runs)],
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            }
            for m, s in metrics.items():
                spread = "n/a" if s["spread"] is None else f"{100 * s['spread']:.1f}%"
                print(f"{c:>10} {w:<13} {m:<22} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    if a.out:
        Path(a.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
