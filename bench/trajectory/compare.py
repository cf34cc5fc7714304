#!/usr/bin/env python3
"""Compares two sets of bench_trajectory runs by the benchmark's decision rule.

    python3 bench/trajectory/compare.py BASE CHANGE [--benchmark FILE]
    python3 bench/trajectory/compare.py --self-test

BASE and CHANGE each name one set of runs: a directory of files written by
`run.py --out` (or `bench_trajectory --out`), or a set inside a results file
written by collect.py, as `results/BENCH_11.json#a`. Runs are paired by seed
when both sides ran the same seeds, otherwise by position; run the two sides
alternately so each pair saw the same machine state.

For every workload and end-to-end metric, with the bound and direction from
BENCHMARK.json:
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), its median is better by more
              than the base set's interquartile range, and no more
              operations failed than in the base;
  unresolved  the spread (interquartile range over median) of either side
              exceeds the bound, unless every change run beats every base run;
  regression  the median is worse by more than the bound;
  same        none of the above.
Traced runs in both sets are compared on their count metrics, which must be
equal. The exit status is 1 when any regression, count difference, failed
run or missing workload shows, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_set(spec):
    """The run objects of one set: a directory of run files or FILE#SET."""
    if os.path.isdir(spec):
        runs = []
        for name in sorted(os.listdir(spec)):
            if name.endswith(".json"):
                with open(os.path.join(spec, name)) as f:
                    runs.append(json.load(f))
        return runs
    path, _, set_name = spec.partition("#")
    with open(path) as f:
        data = json.load(f)
    if "sets" not in data:
        return [data]
    if not set_name:
        raise SystemExit(f"{path} holds sets {sorted(data['sets'])}; "
                         f"name one as {path}#SET")
    return data["sets"][set_name]


def by_workload(runs, trace):
    grouped = {}
    for run in runs:
        if int(run.get("trace", 0)) == trace:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def pair_up(base, change):
    """Pairs runs by seed when both sides ran the same seeds."""
    base_seeds = [r.get("seed") for r in base]
    change_seeds = [r.get("seed") for r in change]
    if (None not in base_seeds and len(set(base_seeds)) == len(base_seeds)
            and sorted(base_seeds) == sorted(change_seeds)):
        by_seed = {r["seed"]: r for r in change}
        return [(r, by_seed[r["seed"]]) for r in base]
    return list(zip(base, change))


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def decide(base, change, bound, lower_is_better, base_failed, change_failed):
    """Verdict and relative median change (positive = worse) for one metric.

    `base` and `change` are paired values: base[i] ran beside change[i].
    """
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse_by = (change_median - base_median) / base_median
    if not lower_is_better:
        worse_by = -worse_by
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b))
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
            and better(change_median, base_median)
            and abs(change_median - base_median) > iqr(base)
            and change_failed <= base_failed):
        return "gain", worse_by
    all_better = all(better(c, b) for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regression", worse_by
    return "same", worse_by


def compare(base_runs, change_runs, benchmark, out=sys.stdout):
    """Prints the comparison; returns True when nothing blocks the change."""
    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    base_sets = by_workload(base_runs, 0)
    change_sets = by_workload(change_runs, 0)
    clean = True
    out.write("workload".ljust(18) + "pairs  " +
              "  ".join(name.rjust(22) for name, _, _ in metrics) + "\n")
    for workload in workloads:
        base = base_sets.get(workload, [])
        change = change_sets.get(workload, [])
        if not base or not change:
            out.write(f"{workload:<18}missing from "
                      f"{'base' if not base else 'change'}\n")
            clean = False
            continue
        pairs = pair_up(base, change)
        failed = [sum(int(r["result"]["failed"]) for r in side)
                  for side in (base, change)]
        incorrect = sum(1 for b, c in pairs
                        if not (b["result"]["correct"] and
                                c["result"]["correct"]))
        cells = []
        for name, bound, lower_is_better in metrics:
            values = [[r["result"]["metrics"][name]["value"] for r in side]
                      for side in zip(*pairs)]
            verdict, worse_by = decide(values[0], values[1], bound,
                                       lower_is_better, *failed)
            clean = clean and verdict != "regression"
            cells.append(f"{verdict} {-worse_by:+.1%}".rjust(22))
        out.write(f"{workload:<18}{len(pairs):>5}  " + "  ".join(cells) + "\n")
        if incorrect or failed[1] > failed[0]:
            out.write(f"{'':<18}failed operations: base {failed[0]}, change "
                      f"{failed[1]}; runs not correct: {incorrect}\n")
            clean = clean and not incorrect and failed[1] <= failed[0]
        if len(pairs) < MIN_PAIRS_FOR_GAIN:
            out.write(f"{'':<18}{len(pairs)} pairs: fewer than "
                      f"{MIN_PAIRS_FOR_GAIN}, so no gain can be claimed\n")
    out.write("(cells: verdict and relative median change, + = better)\n")

    base_traced = by_workload(base_runs, 1)
    change_traced = by_workload(change_runs, 1)
    for workload in workloads:
        for b, c in pair_up(base_traced.get(workload, []),
                            change_traced.get(workload, [])):
            if b.get("seed") != c.get("seed"):
                continue  # counts repeat only for the same seed
            for name, metric in b["result"]["metrics"].items():
                other = c["result"]["metrics"].get(name)
                if metric["unit"] == "count" and (
                        other is None or other["value"] != metric["value"]):
                    out.write(f"{workload}: count {name} differs at seed "
                              f"{b.get('seed')}: {metric['value']} -> "
                              f"{other and other['value']}\n")
                    clean = False
    return clean


def self_test():
    """Checks each verdict on synthetic runs."""
    import io
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }

    def runs(t_values, qps_values, failed=0, trace=0, counts=None):
        out = []
        for i, (t, q) in enumerate(zip(t_values, qps_values)):
            metrics = {"t_ms": {"value": t, "unit": "ms"},
                       "qps": {"value": q, "unit": "1/s"}}
            if counts is not None:
                metrics = {"sets": {"value": counts[i], "unit": "count"}}
            out.append({"workload": "w", "seed": i, "trace": trace,
                        "result": {"correct": True, "attempted": 10,
                                   "failed": failed, "metrics": metrics}})
        return out

    def verdicts(base, change):
        text = io.StringIO()
        clean = compare(base, change, benchmark, text)
        row = next(line for line in text.getvalue().splitlines()
                   if line.startswith("w "))
        return clean, row.split()[2::2], text.getvalue()

    steady = [100 + (i % 3) for i in range(10)]
    qps = [50 + (i % 2) * 0.5 for i in range(10)]
    checks = []
    # Same code twice: no gain, no regression.
    checks.append(verdicts(runs(steady, qps), runs(steady[::-1], qps))[:2]
                  == (True, ["same", "same"]))
    # 20% slower with a tight spread: a regression that blocks.
    checks.append(verdicts(runs(steady, qps),
                           runs([v * 1.2 for v in steady], qps))[:2]
                  == (False, ["regression", "same"]))
    # 20% faster on 10 pairs, winning all: a gain.
    checks.append(verdicts(runs(steady, qps),
                           runs([v * 0.8 for v in steady], qps))[1][0]
                  == "gain")
    # The same gain on 9 pairs cannot be claimed.
    checks.append(verdicts(runs(steady[:9], qps[:9]),
                           runs([v * 0.8 for v in steady[:9]], qps[:9]))[1][0]
                  == "same")
    # A gain with more failed operations does not count.
    checks.append(verdicts(runs(steady, qps),
                           runs([v * 0.8 for v in steady], qps, failed=1))[1][0]
                  == "same")
    # Higher-is-better: 20% less throughput regresses.
    checks.append(verdicts(runs(steady, qps),
                           runs(steady, [v * 0.8 for v in qps]))[1][1]
                  == "regression")
    # Spread wider than the bound: unresolved, even when worse.
    noisy = [100, 140, 70, 120, 90, 150, 60, 110, 130, 80]
    checks.append(verdicts(runs(noisy, qps),
                           runs([v * 1.15 for v in noisy], qps))[1][0]
                  == "unresolved")
    # Traced count metrics must repeat exactly for a seed.
    def with_counts(counts):
        return runs(steady, qps) + runs(steady, qps, trace=1, counts=counts)

    checks.append(compare(with_counts([7] * 10), with_counts([7] * 10),
                          benchmark, io.StringIO()) is True)
    checks.append(compare(with_counts([7] * 10), with_counts([7] * 9 + [8]),
                          benchmark, io.StringIO()) is False)
    # statistics.quantiles is the spread the benchmark's contract uses.
    checks.append(abs(spread([1, 2, 3, 4, 5]) - 3.0 / 3.0) < 1e-12)
    failed = [i for i, ok in enumerate(checks) if not ok]
    print("compare.py self-test: " +
          ("ok" if not failed else f"FAILED checks {failed}"))
    return 0 if not failed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("give BASE and CHANGE")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    return 0 if compare(load_set(args.base), load_set(args.change),
                        benchmark) else 1


if __name__ == "__main__":
    sys.exit(main())
