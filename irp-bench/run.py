#!/usr/bin/env python3
"""irp-bench entry point: build, run one workload, print its result line.

    python3 irp-bench/run.py --workload {study|serve_closed|serve_open} \
        --seed N --seconds S --trace {0|1}

Run from the repository root. The first run configures and builds the
repository's libraries, the unmodified run_study_cli and the irp_bench
runner into .bench_build/irp-bench (Release-with-debug-info, as the
repository builds by default); later runs only re-check the build. The last
line of stdout is the result object; every earlier line is a comment.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "irp-bench")
WORKLOADS = ("study", "serve_closed", "serve_open")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"irp-bench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to irp-bench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "irp_bench",
                  "run_study_cli"])
    for step in steps:
        # Build chatter goes to stderr: stdout belongs to the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Smoke-test knobs (irp-bench/smoke_test.py); never used by a real run.
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject", choices=("bad-reference", "bad-answer"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    cmd = [os.path.join(BUILD, "irp_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-study-cli", os.path.join(BUILD, "run_study_cli"),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd.append("--inject-" + args.inject)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{args.workload} printed no result (exit {proc.returncode})")

    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(json.dumps(result))
        fail(f"metric set differs from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
