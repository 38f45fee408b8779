#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]
                                 [--per-layer]

Each directory holds one file per run, named <workload>-<seed>.json, whose
last line is the JSON result perfbench/run.py prints. Runs of the two
sides with the same file name form a pair; run them alternately.

For every workload and end-to-end metric (per-layer metrics too with
--per-layer) it prints each side's median and quartiles, the share of
pairs the new side won, and a verdict:

  improved    the new side won at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base
              side's interquartile range;
  unresolved  the base side's spread is wider than the metric's bound,
              and not every new run beats every base run;
  regressed   the new median is worse than the base median by more than
              the bound in BENCHMARK.json;
  no-worse    otherwise.

Per-layer metrics have no bound: they are improved, worsened (the same
rule in the other direction) or unresolved. Exits 1 when an end-to-end
metric regressed or a run reported incorrect output, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """Returns {workload: {seed_tag: result}} for a result directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        stem = name[:-len(".json")]
        workload, sep, tag = stem.rpartition("-")
        if not sep:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError("%s is empty" % os.path.join(directory, name))
        runs.setdefault(workload, {})[tag] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, new, pairs, direction, bound):
    """The verdict for one metric; see the module docstring."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    wins = sum(1 for b, n in pairs if better(n, b, direction))
    losses = sum(1 for b, n in pairs if better(b, n, direction))
    beyond_spread = abs(new_median - base_median) > iqr
    if pairs and wins >= 0.9 * len(pairs) and beyond_spread and better(
            new_median, base_median, direction):
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and beyond_spread:
            return "worsened"
        return "unresolved"
    scale = abs(base_median)
    all_better = all(better(n, b, direction) for b in base for n in new)
    if scale > 0 and iqr / scale > bound and not all_better:
        return "unresolved"
    worse = (new_median - base_median) if direction == "lower" else (
        base_median - new_median)
    if (scale > 0 and worse / scale > bound) or (scale == 0 and worse > 0):
        return "regressed"
    return "no-worse"


def compare(base_runs, new_runs, spec, per_layer=False):
    """Yields one row per (workload, metric) present on both sides."""
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]]
    if per_layer:
        metrics += [(m, None) for m in spec["per_layer"]]
    for workload in sorted(set(base_runs) & set(new_runs)):
        base_side, new_side = base_runs[workload], new_runs[workload]
        tags = sorted(set(base_side) & set(new_side))
        for metric, bound in metrics:
            name = metric["name"]

            def values(side, keys):
                return [side[k]["metrics"][name]["value"] for k in keys
                        if name in side[k]["metrics"]]

            base = values(base_side, sorted(base_side))
            new = values(new_side, sorted(new_side))
            if not base or not new:
                continue
            pairs = [(base_side[t]["metrics"][name]["value"],
                      new_side[t]["metrics"][name]["value"]) for t in tags
                     if name in base_side[t]["metrics"]
                     and name in new_side[t]["metrics"]]
            wins = sum(1 for b, n in pairs
                       if better(n, b, metric["better"]))
            yield {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": (statistics.median(base),) + quartiles(base),
                "new": (statistics.median(new),) + quartiles(new),
                "won": (wins, len(pairs)),
                "verdict": verdict(base, new, pairs, metric["better"], bound),
                "end_to_end": bound is not None,
            }


def incorrect_runs(runs):
    return sorted("%s-%s" % (w, t) for w, by_tag in runs.items()
                  for t, result in by_tag.items()
                  if not result.get("correct") or result.get("failed"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args(argv)

    with open(args.benchmark) as f:
        spec = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)

    failed = False
    for side, runs in (("base", base_runs), ("new", new_runs)):
        bad = incorrect_runs(runs)
        if bad:
            failed = True
            print("%s: incorrect output in %s" % (side, ", ".join(bad)))

    def fmt(stats):
        return "%.6g [%.6g, %.6g]" % stats

    print("%-11s %-28s %-34s %-34s %-7s %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "won", "verdict"))
    for row in compare(base_runs, new_runs, spec, args.per_layer):
        print("%-11s %-28s %-34s %-34s %-7s %s" % (
            row["workload"], row["metric"] + " (" + row["unit"] + ")",
            fmt(row["base"]), fmt(row["new"]), "%d/%d" % row["won"],
            row["verdict"]))
        if row["end_to_end"] and row["verdict"] == "regressed":
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
