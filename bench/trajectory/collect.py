#!/usr/bin/env python3
"""Runs sets of bench_trajectory runs and writes them, with host facts, to one
results file that compare.py reads.

    python3 bench/trajectory/collect.py --out bench/trajectory/results/BENCH_11.json \
        [--sets 2] [--runs 5] [--first-seed 1] [--traced]

Run it from the root of a checkout. Every workload in BENCHMARK.json runs
`--runs` times per set, each run on a fresh seed, for BENCHMARK.json's
`run_seconds`; the sets alternate run by run so slow drift on the host lands
on all of them alike. With --traced, one traced run per workload (on the
first seed) is added. Stops at the first run that fails.
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
BUILD = os.path.join(ROOT, ".bench_build", "trajectory")


def output(command):
    try:
        return subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def host_info():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                match = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE|"
                                 r"CMAKE_CXX_FLAGS_RELEASE|CMAKE_CXX_FLAGS)"
                                 r":\w+=(.*)", line.strip())
                if match:
                    cache[match.group(1)] = match.group(2)
    except OSError:
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    l3 = ""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    return {
        "compiler": (output([compiler, "--version"]).splitlines() or [""])[0],
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip() +
                 " -std=c++20",
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "l3": l3,
        "kernel": platform.release(),
        "commit": output(["git", "describe", "--always", "--dirty",
                          "--abbrev=40"]) or "unknown",
    }


def run_once(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.json")
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", out],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(done.stdout)
            raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
        with open(out) as f:
            return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    set_names = [chr(ord("a") + i) for i in range(args.sets)]
    sets = {name: [] for name in set_names}
    seed = args.first_seed
    for _ in range(args.runs):
        for name in set_names:
            for workload in workloads:
                run = run_once(workload, seed, seconds, 0)
                metrics = run["result"]["metrics"]
                print(f"set {name} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                    flush=True)
                sets[name].append(run)
            seed += 1
    traced = []
    if args.traced:
        for workload in workloads:
            traced.append(run_once(workload, args.first_seed, seconds, 1))
            print(f"traced {workload} seed {args.first_seed}", flush=True)
    result = {
        "benchmark": "bench/trajectory",
        "date": datetime.date.today().isoformat(),
        "run_seconds": seconds,
        "host": host_info(),
        "sets": sets,
        "traced": traced,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
