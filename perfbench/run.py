#!/usr/bin/env python3
"""Step benchmark of the greem distributed TreePM simulation.

Builds perfbench/greem_perf (the repository's src/ libraries plus the
benchmark program in this directory) into the build directory, runs one
workload, checks the result and prints it as the last line of standard
output:

    python3 perfbench/run.py --workload clustered --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; run-time files (checkpoints, traces) go to
.bench_out.  Build output goes to standard error.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clustered", "uniform", "fine_mesh")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configure (once) and build greem_perf; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "greem_perf", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed ({done.returncode}): {' '.join(cmd)}", file=sys.stderr)
            return None
    exe = os.path.join(build_dir, "greem_perf")
    return exe if os.path.exists(exe) else None


def valid(result, trace):
    """True when `result` has the agreed shape and every value is a number."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        return False
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        return False
    for m in metrics.values():
        v = m.get("value") if isinstance(m, dict) else None
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return False
    # The time metrics of an end-to-end run can never be 0.
    return trace or all(metrics[k]["value"] > 0 for k in ("step_ms", "setup_s"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"greem_perf exited with {done.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"unreadable result line: {e}", file=sys.stderr)
        return 1
    if not valid(result, args.trace):
        print(f"malformed result: {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
