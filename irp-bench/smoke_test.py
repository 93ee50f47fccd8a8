#!/usr/bin/env python3
"""Smoke test of irp-bench itself, at a tiny study size (about a minute).

    python3 irp-bench/smoke_test.py

Checks three things, from the repository root:
  1. every workload, untraced and traced, prints every metric BENCHMARK.json
     names for that mode, with its unit, and passes its correctness gates;
  2. the study digest gate fires when the threads=1 reference is corrupted;
  3. the answer gate fires on both serving workloads when one precomputed
     expected answer is corrupted.
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    last = proc.stdout.strip().split("\n")[-1]
    try:
        return proc.returncode, json.loads(last)
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {} if result is None else {
                k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and result is not None and result["correct"]
                  and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} --trace {trace}: exit 0, correct, nothing failed")
            check(got == want,
                  f"{workload} --trace {trace}: emits all {len(want)} {key} "
                  f"metrics with their units")

    code, result = run("study", 0, "bad-reference")
    check(code != 0 and result is not None and not result["correct"],
          "study: digest gate fires on a wrong threads=1 reference")
    for workload in ("serve_closed", "serve_open"):
        code, result = run(workload, 0, "bad-answer")
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: answer gate fires on a wrong expected answer")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
