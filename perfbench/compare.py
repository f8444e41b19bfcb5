#!/usr/bin/env python3
"""Paired comparison of two builds on the benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--pairs 10]
        [--workloads tpcd_power,service_front] [--first-seed 1]

BASE_DIR and CHANGE_DIR are two checkouts (the parent commit and the
change), each with its own perfbench/. For every workload the helper runs
--pairs pairs; pair i uses seed first-seed + i on both sides and
alternates which side runs first. Every run lasts BENCHMARK.json's
run_seconds, the length its bounds were set for, and prints the end-to-end
metrics.

Per workload and metric it prints both sides' medians and quartiles, the
change's win share (ties count for neither side), and a verdict:

  improved   the change wins at least 9 pairs in 10 and the medians differ
             by more than the base's own spread (its interquartile range);
  no worse   the change's median is within the metric's bound of the
             base's, and the base's spread is within the bound too;
  worse      the change's median is worse than the base's by more than
             the bound, and the base's spread is within the bound;
  unresolved anything else: a spread wider than the bound leaves the
             comparison open unless every change run beats every base run.

A pair in which either side fails a check, or exits non-zero, is
reported; a gain does not count when the change fails more operations than
the base.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, lower_better, bound):
    """Verdict of `change` against `base` (lists, one value per pair)."""
    better = (lambda c, b: c < b) if lower_better else (lambda c, b: c > b)
    wins = sum(better(c, b) for b, c in zip(base, change))
    bm, cm = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    n = len(base)
    if wins >= 0.9 * n and better(cm, bm) and abs(cm - bm) > spread:
        return "improved", wins / n
    all_better = all(better(c, b) for c in change for b in base)
    if bm and spread / abs(bm) > bound and not all_better:
        return "unresolved", wins / n
    worse_by = (cm - bm) / abs(bm) if lower_better else (bm - cm) / abs(bm)
    if worse_by > bound:
        return "worse", wins / n
    return "no worse", wins / n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare.py: at least 10 pairs are needed for a verdict")

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]
    ]
    defs = {m["name"]: m for m in bench["end_to_end"]}

    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                checkout = args.base if side == "base" else args.change
                r = run_once(checkout, workload, seed, seconds)
                runs[side].append(r)
                print(f"{workload} pair {i} seed {seed} {side}: exit {r['exit']} "
                      f"correct {r['correct']} failed {r['failed']}", file=sys.stderr)
        bad = {s: sum(1 for r in runs[s] if r["exit"] != 0 or not r["correct"]) for s in runs}
        failed_ops = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        rows = []
        for name, d in defs.items():
            base = [r["metrics"].get(name, {}).get("value") for r in runs["base"]]
            change = [r["metrics"].get(name, {}).get("value") for r in runs["change"]]
            if None in base or None in change:
                continue
            lower = d["better"] == "lower"
            v, share = verdict(base, change, lower, d["bound"])
            if v == "improved" and failed_ops["change"] > failed_ops["base"]:
                v = "unresolved"
            rows.append({
                "metric": name, "unit": d["unit"], "better": d["better"],
                "base_median": statistics.median(base), "base_quartiles": quartiles(base),
                "change_median": statistics.median(change),
                "change_quartiles": quartiles(change), "win_share": share, "verdict": v,
            })

        print(f"\n== {workload}: {args.pairs} pairs, {seconds} s runs; bad runs "
              f"base {bad['base']} change {bad['change']}; failed ops base "
              f"{failed_ops['base']} change {failed_ops['change']}")
        print(f"{'metric':40s} {'unit':6s} {'base med [q1, q3]':>34s} "
              f"{'change med [q1, q3]':>34s} {'wins':>5s}  verdict")
        for r in rows:
            bq, cq = r["base_quartiles"], r["change_quartiles"]
            print(f"{r['metric']:40s} {r['unit']:6s} "
                  f"{r['base_median']:10.4g} [{bq[0]:9.4g}, {bq[1]:9.4g}] "
                  f"{r['change_median']:10.4g} [{cq[0]:9.4g}, {cq[1]:9.4g}] "
                  f"{r['win_share']:5.0%}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
