#!/usr/bin/env python3
"""Measures the benchmark's own run-to-run spread, the way it is accepted.

    python3 benchmark/calibrate.py [--runs 10] [--sets 1] [--workloads a,b]

Runs every workload `runs` times per set for BENCHMARK.json's run_seconds,
each run with its own seed (1, 2, ... across all sets), and prints for each
end-to-end metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median. A spread within a third of the metric's bound in
BENCHMARK.json is steady enough (setup_s is exempt). With --sets 2 it also
checks that the second set's median is not worse than the first's by more
than the bound. Run from the repository root; exits 1 if a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"calibrate.py: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"calibrate.py: {workload} seed {seed} failed its checks: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - started


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            values, took = {}, []
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                metrics, seconds_taken = run_once(workload, seed, seconds)
                took.append(seconds_taken)
                for name, value in metrics.items():
                    values.setdefault(name, []).append(value)
            print(f"{workload} set {s + 1}: {args.runs} runs, {min(took):.1f}-{max(took):.1f} s each")
            set_medians = {}
            for m in spec["end_to_end"]:
                med, sp = spread(values[m["name"]])
                set_medians[m["name"]] = med
                steady = m["name"] == "setup_s" or sp <= m["bound"] / 3
                ok &= steady
                print(f"  {m['name']:<18} median {med:<12.6g} spread {sp:6.1%}  bound {m['bound']:.0%}"
                      f"{'' if steady else '  TOO NOISY'}")
            medians.append(set_medians)
        for m in spec["end_to_end"]:
            for later in medians[1:]:
                drift = worse_by(medians[0][m["name"]], later[m["name"]], m["better"])
                if drift > m["bound"]:
                    ok = False
                    print(f"  {m['name']}: set median worse by {drift:.1%} > bound {m['bound']:.0%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
