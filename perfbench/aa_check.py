#!/usr/bin/env python3
"""A/A steadiness check for the repository benchmark.

    python3 perfbench/aa_check.py [--workloads campaign,screen,serve] [--runs 5]

Runs two sets, A and B, of the same build, interleaved run by run (A, B, A,
B, ...) so that host speed drift hits both sets alike; every run uses its
own seed and BENCHMARK.json's run_seconds. For each end-to-end metric of
BENCHMARK.json it prints the median of each set, their difference as a
share of A's median, and the spread of all runs (interquartile range over
median, as statistics.quantiles gives it), each against the metric's
bound. A metric passes when the absolute difference and the spread both
stay within the bound; "steady" marks a spread below a third of the bound.
Exits 1 if any metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="campaign,screen,serve")
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    failed = False
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, name in enumerate("AB"):
                seed = 1 + 2 * i + k
                sets[name].append(run_once(workload, seed, seconds))
                print(f"{workload} {name} seed {seed}: " + ", ".join(
                    f"{m}={v:.6g}" for m, v in sets[name][-1].items()),
                    file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} + {args.runs} interleaved runs, "
              f"{seconds} s each")
        print(f"  {'metric':12s} {'median A':>12s} {'median B':>12s} "
              f"{'diff':>8s} {'spread':>8s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            diff = (mb - ma) / ma if ma else 0.0
            sp = spread(a + b)
            ok = abs(diff) <= bound and sp <= bound
            failed |= not ok
            verdict = ("pass" if ok else "FAIL") + \
                (", steady" if sp < bound / 3 else "")
            print(f"  {name:12s} {ma:12.6g} {mb:12.6g} {diff:+8.2%} "
                  f"{sp:8.2%} {bound:6.2f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
