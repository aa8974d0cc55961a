#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    benchmark/compare.py A.json B.json
    benchmark/compare.py benchmark/baseline.json:seed1_a B.json

A and B are files written by `benchmark/run.sh --out FILE`, or FILE:SET
for one named set of a file holding several (baseline.json); A is the
parent, B the change. Only untraced runs count. For every end-to-end
metric of BENCHMARK.json it prints both medians, each side's spread
(distance between its quartiles as a share of its median) and a verdict:

  better, worse  B's median moved by more than the metric's bound, with
                 or against the metric's "better" direction;
  same           it moved by no more than the bound;
  unresolved     a side's spread is wider than the bound, so the bound
                 cannot be resolved; unless every run of B reads better
                 (or worse) than every run of A, which is then the verdict.

Exits 1 when any row is worse or unresolved, 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def untraced_runs(arg):
    path, _, name = arg.partition(":")
    with open(path) as f:
        doc = json.load(f)
    runs = doc["sets"][name] if name else doc["runs"]
    return [r for r in runs if not r["trace"]]


def spread(values):
    """Interquartile distance over the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, lower_is_better, bound):
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / \
        statistics.median(a)
    if max(spread(a), spread(b)) > bound:
        if all(sign * x < sign * y for x in b for y in a):
            return worse_by, "better"
        if all(sign * x > sign * y for x in b for y in a):
            return worse_by, "worse"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "same"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    a_runs, b_runs = untraced_runs(argv[1]), untraced_runs(argv[2])
    print("%-13s %-17s %-8s %4s %12s %7s %4s %12s %7s %8s %6s  %s" % (
        "workload", "metric", "unit", "nA", "median A", "sprd A", "nB",
        "median B", "sprd B", "worse by", "bound", "verdict"))
    failing = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs
                 if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if r["workload"] == workload]
            if not a or not b:
                continue
            worse_by, v = verdict(a, b, m["better"] == "lower", m["bound"])
            failing += v in ("worse", "unresolved")
            print("%-13s %-17s %-8s %4d %12.6g %6.1f%% %4d %12.6g %6.1f%% "
                  "%7.1f%% %5.0f%%  %s" % (
                      workload, name, m["unit"], len(a),
                      statistics.median(a), 100 * spread(a), len(b),
                      statistics.median(b), 100 * spread(b),
                      100 * worse_by, 100 * m["bound"], v))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
