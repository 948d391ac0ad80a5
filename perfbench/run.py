#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kv_serve --seed 1 --seconds 30 --trace 0

The benchmark program (perfbench.cpp) and the library sources under src/ are
compiled with CMake into .bench_build/perfbench. Its standard output is passed
through; its last line is the JSON result. With --trace 1 the spans of the
traced reps are written to .bench_build/spans-<workload>.json.

Exits non-zero, without a result line, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("kv_serve", "fleet_toggle", "spec_plan")
# A run measures for --seconds, but at least three reps of each kind; the
# slowest workload with tracing takes well under this.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(ROOT, ".bench_build", f"spans-{args.workload}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
