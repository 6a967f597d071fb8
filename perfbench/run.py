#!/usr/bin/env python3
"""Benchmark entry point for SCOUT.

Run from the repository root (paths below are relative to it):

    python3 perfbench/run.py --workload tcam-churn --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 45          # every workload
    python3 perfbench/run.py --selftest                      # determinism test

The first run configures and builds the program and the benchmark binary
from source into .bench_build/ (RelWithDebInfo). Each workload then runs in
its own process; its last line of output is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is non-zero when the
build fails, an oracle check fails, or the printed metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("tcam-churn", "policy-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(targets):
    """Configure (once) and build the benchmark targets; False on failure."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():  # not yet (fully) configured
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", *targets,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"perfbench: build step failed: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"perfbench: build failed, see {log_path}", file=sys.stderr)
                return False
    return True


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec.get(key, [])]


def run_workload(workload, seed, seconds, trace):
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--commit", commit(),
           "--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return done.returncode or 1
    expected = declared_metrics(trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in (0, 3600]")

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([str(BUILD / "perfbench_selftest")],
                              timeout=BUILD_TIMEOUT_S).returncode
    if not build(["perfbench"]):
        return 1
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        status = run_workload(workload, args.seed, args.seconds,
                              args.trace == 1) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
