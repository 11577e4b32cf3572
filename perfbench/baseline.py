#!/usr/bin/env python3
"""Record a baseline: run the benchmark on several seeds per workload.

    python3 perfbench/baseline.py [--runs N] [--fixed M] [--seconds S]
                                  [--trace] [workload ...]

Runs from the repository root, builds once through run.py, and prints
a markdown table with each end-to-end metric's median, quartiles and
spread (Q3 - Q1 over the median, from statistics.quantiles(n=4)) over
N runs with seeds 1..N. Between them it makes M more runs with seed 1
alone and prints their spread too: that is the host's noise without
the variation between seeds. The raw values go to standard error.
With --trace it also prints one traced run's per-layer metrics per
workload (seed N + 1).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stdout}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{out.stdout}")
    return result


def spread(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--fixed", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    print("| workload | metric | unit | median | Q1 | Q3 | spread "
          "| spread, seed 1 only |")
    print("|---|---|---|---|---|---|---|---|")
    for w in args.workloads:
        seeded, fixed = {}, {}
        for i in range(1, args.runs + 1):
            plan = [(i, seeded)] + ([(1, fixed)] if i <= args.fixed else [])
            for seed, into in plan:
                r = run(w, seed, args.seconds, False)
                for name, m in r["metrics"].items():
                    into.setdefault(name, (m["unit"], []))[1].append(
                        m["value"])
        for name, (unit, vs) in seeded.items():
            q1, med, q3, sp = spread(vs)
            fvs = fixed.get(name, (unit, []))[1]
            fsp = f"{spread(fvs)[3]:.3f}" if len(fvs) >= 2 else "-"
            print(f"| {w} | {name} | {unit} | {med:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {sp:.3f} | {fsp} |", flush=True)
            print(f"{w} {name} seeds 1..{args.runs}: {vs}; seed 1: {fvs}",
                  file=sys.stderr)
    if args.trace:
        for w in args.workloads:
            r = run(w, args.runs + 1, args.seconds, True)
            print(f"\n{w} (traced, seed {args.runs + 1}):")
            for name, m in r["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    main()
