#!/usr/bin/env python3
"""Runs BENCHMARK.json's command N times per workload, each with another
seed, and prints for every metric the median and the quartile distance as a
share of the median, next to the metric's bound.

    python3 lgbench/spread.py [--runs 10] [--first-seed 1] [--trace 0] [--raw] [--workload NAME ...]

Run it from the repository root (where BENCHMARK.json is).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--raw", action="store_true", help="also print the sorted values")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in workloads:
        values, walls = {}, []
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            t0 = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.time() - t0)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i}: exit code {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: {result['failed']} failed, correct={result['correct']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} runs, {statistics.median(walls):.1f} s each (max {max(walls):.1f} s)")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                note = f"  bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            print(f"  {name:<44} median {med:>16.4f}  spread {spread * 100:6.2f} %{note}")
            if args.raw:
                print("      " + " ".join(f"{v:.4g}" for v in sorted(vs)))
        sys.stdout.flush()
    if args.trace == 0:
        print(f"worst spread/bound: {worst:.2f} (the driver accepts up to 1.00; aim below 0.33)")


if __name__ == "__main__":
    main()
