#!/usr/bin/env python3
"""Builds bench_trajectory from this checkout's sources and runs one workload.

    python3 bench/trajectory/run.py --workload NAME --seed N --seconds T \
        --trace 0|1 [--out FILE]

Run it from the root of a checkout. The first call configures and builds the
subsim library and the benchmark into .bench_build/trajectory (under a minute
on four cores); later calls only let CMake confirm nothing changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is the benchmark's: 0 only when every check passed. When the
build fails (for instance when the library sources are missing) this script
exits 1 without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "trajectory")
BINARY = os.path.join(BUILD, "bench_trajectory")
WORKLOADS = ("wc-subsim", "wc-vanilla-dram", "hist-hi", "serve-mixed")
# A run measures for --seconds plus a few seconds of set-up and checks; the
# traced run of wc-vanilla-dram is the longest at about 1.5x --seconds + 15.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_quietly(command, timeout):
    """Runs `command` with its output on stderr; True when it exits 0."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return False


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return (run_quietly(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) and
            run_quietly(["cmake", "--build", BUILD, "-j", jobs],
                        BUILD_TIMEOUT_S))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result (and the "
                        "traced run's spans) to this file")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.out:
        command.append(f"--out={os.path.abspath(args.out)}")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
