#!/usr/bin/env python3
"""Steadiness check: run one workload under several seeds and report, per
end-to-end metric, the median and the interquartile range as a share of
the median (the spread the benchmark's bounds are checked against).

    python3 perfbench/spread.py --workload tolerance --runs 10 [--seconds 20]

Runs from the root of a checkout, one run after another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        doc = json.loads(out.strip().splitlines()[-1])
        if not doc["correct"] or doc["failed"]:
            print("seed %d: incorrect run: %s" % (seed, out), file=sys.stderr)
            return 1
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"]) for k, m in doc["metrics"].items())), flush=True)
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- above a third of the bound"
        if name != "setup_s":
            worst = max(worst, share / bound if bound else 0)
        print("%-14s median %-12.5g spread %6.2f%%  bound %s%s" % (
            name, med, share * 100, "%.0f%%" % (bound * 100) if bound else "-", flag))
    print("worst spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
