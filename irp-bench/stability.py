#!/usr/bin/env python3
"""Repeat irp-bench runs and record each end-to-end metric's spread.

    python3 irp-bench/stability.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--out irp-bench/stability]

Runs each workload --runs times, each with another seed, from the repository
root, and writes <out>/<workload>.json: every run's metrics, and per metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A spread
above a third of its bound (setup_s excepted) is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=os.path.join(HERE, "stability"))
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)

    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            wall = time.time() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode})")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correctness gate failed")
            runs.append({"seed": seed, "wall_s": round(wall, 2),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "bound": bound,
                "steady": name == "setup_s" or spread < bound / 3}
            print(f"  {name:14s} median={statistics.median(values):.6g} "
                  f"spread={spread:.4f} bound={bound} "
                  f"{'ok' if summary[name]['steady'] else 'TOO WIDE'}")
        with open(os.path.join(args.out, f"{workload}.json"), "w") as f:
            json.dump({"workload": workload, "run_seconds": spec["run_seconds"],
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
