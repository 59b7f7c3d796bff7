#!/usr/bin/env python3
"""Compares two benchmark result sets and attributes the change to layers.

    python3 flexbench/diff.py PARENT.json CHILD.json

Both files come from `summarize.py run`. For every workload, each
end-to-end metric of BENCHMARK.json gets the parent and child medians,
the change, and a verdict:

  noise       the child median lies inside the parent's q1..q3
  gain        the child is better on at least 9 in 10 seed-paired runs and
              the medians differ by more than the parent's q3 - q1
  REGRESSION  the child median is worse than the parent's by more than the
              metric's bound
  unresolved  anything else (a difference the runs cannot settle)

When both sets hold traced runs (--trace 1) of the workload, the host
time of every layer is rebuilt from its share of the traced pass and the
pass wall time, and the layers whose self time moved most are listed,
largest first: the layer that accounts for an end-to-end change is the
one whose time moved the same way by a similar amount.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from summarize import load, quantiles  # noqa: E402

TOP_LAYERS = 5


def benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def by_seed(runs, workload, trace):
    return {r["seed"]: r for r in runs
            if r["workload"] == workload and r["trace"] == trace}


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def verdict(metric, parent_runs, child_runs):
    name, lower = metric["name"], metric["better"] == "lower"
    pv, cv = values(parent_runs.values(), name), values(child_runs.values(), name)
    if not pv or not cv:
        return None
    q1, pm, q3 = quantiles(pv)
    cm = statistics.median(cv)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    seeds = sorted(set(parent_runs) & set(child_runs))
    wins = 0
    for seed in seeds:
        p = parent_runs[seed]["result"]["metrics"][name]["value"]
        c = child_runs[seed]["result"]["metrics"][name]["value"]
        wins += (c < p) if lower else (c > p)
    if q1 <= cm <= q3:
        label = "noise"
    elif worse > metric["bound"]:
        label = "REGRESSION"
    elif seeds and wins >= 0.9 * len(seeds) and abs(cm - pm) > q3 - q1:
        label = "gain"
    else:
        label = "unresolved"
    return {"parent": pm, "child": cm, "worse_pct": 100.0 * worse,
            "wins": wins, "pairs": len(seeds), "label": label}


def layer_seconds(runs):
    """Median host seconds per layer over traced runs."""
    layers = {}
    for run in runs:
        metrics = run["result"]["metrics"]
        pass_s = metrics["trace.pass_s"]["value"]
        for name in run["info"].get("host_shares", []):
            share = metrics[name]["value"]
            layers.setdefault(name, []).append(share / 100.0 * pass_s)
    return {name: statistics.median(v) for name, v in layers.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("child")
    args = parser.parse_args()
    spec = benchmark_spec()
    parent, child = load([args.parent]), load([args.child])
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p0, c0 = by_seed(parent, workload, 0), by_seed(child, workload, 0)
        if not p0 or not c0:
            continue
        print(f"\n{workload}: {len(p0)} parent runs, {len(c0)} child runs")
        print(f"  {'metric':14s} {'parent':>12s} {'child':>12s} "
              f"{'worse %':>8s} {'wins':>6s}  verdict")
        for metric in spec["end_to_end"]:
            v = verdict(metric, p0, c0)
            if v is None:
                continue
            regressions += v["label"] == "REGRESSION"
            print(f"  {metric['name']:14s} {v['parent']:12.5g} "
                  f"{v['child']:12.5g} {v['worse_pct']:8.2f} "
                  f"{v['wins']:>2d}/{v['pairs']:<3d}  {v['label']}")
        p1, c1 = by_seed(parent, workload, 1), by_seed(child, workload, 1)
        if p1 and c1:
            pl, cl = layer_seconds(p1.values()), layer_seconds(c1.values())
            moved = sorted(((cl.get(k, 0.0) - pl.get(k, 0.0), k)
                            for k in set(pl) | set(cl)),
                           key=lambda item: -abs(item[0]))
            print("  layers whose host time moved most (traced runs):")
            for delta, name in moved[:TOP_LAYERS]:
                label = name.replace("_pct", "_s")
                print(f"    {label:32s} {pl.get(name, 0.0):10.4f} s -> "
                      f"{cl.get(name, 0.0):10.4f} s  ({delta:+.4f} s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
