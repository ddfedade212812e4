#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 flowbench/spread.py --runs 10 [--seconds 10] [ladder equiv ...]

Runs the benchmark once per seed (seeds 1..runs) on each workload, one
run at a time, and prints per metric the median and the interquartile
distance as a share of the median (statistics.quantiles, n=4), next to
the metric's bound from BENCHMARK.json.  A metric is steady when its
spread stays below a third of its bound; setup_s is exempt, only its
median is compared between sets of runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "flowbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for w in args.workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            for k, v in run_once(w, seed, args.seconds).items():
                values.setdefault(k, []).append(v)
        print(f"== {w} ({args.runs} runs, {args.seconds} s each)")
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            if k == "setup_s":
                flag = "(set-up: only its median is compared)"
            else:
                flag = "ok" if spread < bounds[k] / 3 else "WIDE"
            print(f"  {k:20s} median {med:14.6g}  spread {spread:7.2%}  "
                  f"bound {bounds[k]:.2f}  {flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
