#!/usr/bin/env python3
"""Steadiness check of the benchmark, as the benchmark contract defines it.

Runs the BENCHMARK.json command ten times on each workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its ten values as a share of their median,
next to the metric's bound. A spread should stay below a third of its bound.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...] [--first-seed 100]

Run it from the repository root. It builds through the command itself
(CARGO_TARGET_DIR defaults to .bench_build, as the benchmark driver sets it).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: incorrect output")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} run {i + 1}/{args.runs}: {time.time() - t0:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
        print(f"{workload}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<26} median {med:>12.4f}  spread {spread:6.3f}  bound {bounds[name]:.2f}"
                  f"  values {' '.join(f'{v:.4g}' for v in vals)}")
    print(f"worst spread/bound (setup_s excepted): {worst:.2f} (want < 0.33, must be < 1)")


if __name__ == "__main__":
    main()
