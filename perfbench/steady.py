#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly, each time with another seed (1000 and
up), for BENCHMARK.json's run_seconds, and prints every end-to-end
metric's spread -- the distance between the first and third quartile of
its values, as a share of their median -- next to the metric's bound
from BENCHMARK.json. A bound is set so the spread stays well inside it
(the aim is below a third of it).

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads dense_home
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1000


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout[-3000:]}")
    return result, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = (0.0, "")
    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        walls = []
        for i in range(args.runs):
            seed = FIRST_SEED + i
            result, wall = run_once(bench["command"], workload, seed, seconds)
            walls.append(wall)
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
        print(f"{workload}: {args.runs} runs of {seconds} s, wall {min(walls):.0f}-{max(walls):.0f} s per run,"
              f" failed share {sorted(shares)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = values[name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, (spread / bound, f"{workload} {name}"))
            flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
            print(f"  {name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6.2f}{flag}")
    print(f"largest spread as a share of its bound: {worst[0]:.2f} ({worst[1]})")


if __name__ == "__main__":
    main()
