#!/usr/bin/env python3
"""Repeated-run summaries for the benchmark.

Run a workload over several seeds and keep every result in a result set:

    python3 flexbench/summarize.py run --workload fleet_failover \\
        --seeds 1-10 --seconds 10 [--trace 1] --out .bench_build/results/a.json

Summarize one or more result sets:

    python3 flexbench/summarize.py show .bench_build/results/a.json

For each workload and metric the summary gives n, min, the quartiles,
median, max, mean, standard deviation and range over the runs (the
fields of gnumeric's simstats_t), plus the spread (q3 - q1) / median
that BENCHMARK.json bounds. Nothing is best-of-N: every run counts. Each
run keeps the benchmark's stamp (hw_concurrency, solver threads, fleet
lanes, build type, git commit), its fingerprints and its seed-fixed
figures.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark once; returns the run record (None on failure)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
    except (IndexError, KeyError, json.JSONDecodeError):
        return None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "exit": done.returncode, "info": info,
            "result": result}


def quantiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, _, q3 = quantiles(values)
    median = statistics.median(values)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(values),
        "mean": statistics.fmean(values),
        "stddev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "range": max(values) - min(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def load(paths):
    runs = []
    for path in paths:
        runs.extend(json.loads(pathlib.Path(path).read_text())["runs"])
    return runs


def group(runs):
    """{(workload, trace): {metric: {"unit": u, "values": [...]}}}"""
    groups = {}
    for run in runs:
        metrics = groups.setdefault((run["workload"], run["trace"]), {})
        for name, m in run["result"]["metrics"].items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
    return groups


def show(runs):
    stamps = {json.dumps(r["info"]["stamp"], sort_keys=True) for r in runs}
    for stamp in sorted(stamps):
        print(f"stamp {stamp}")
    for (workload, trace), metrics in sorted(group(runs).items()):
        subset = [r for r in runs
                  if r["workload"] == workload and r["trace"] == trace]
        failed = sum(r["result"]["failed"] for r in subset)
        attempted = sum(r["result"]["attempted"] for r in subset)
        correct = all(r["result"]["correct"] for r in subset)
        print(f"\n{workload} (trace {trace}): {len(subset)} runs, "
              f"correct={correct}, failed {failed}/{attempted}")
        print(f"  {'metric':34s} {'unit':9s} {'n':>3s} {'min':>11s} "
              f"{'q1':>11s} {'median':>11s} {'q3':>11s} {'max':>11s} "
              f"{'stddev':>10s} {'spread':>7s}")
        for name, entry in metrics.items():
            s = summary(entry["values"])
            print(f"  {name:34s} {entry['unit']:9s} {s['n']:3d} "
                  f"{s['min']:11.5g} {s['q1']:11.5g} {s['median']:11.5g} "
                  f"{s['q3']:11.5g} {s['max']:11.5g} {s['stddev']:10.4g} "
                  f"{s['spread']:7.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run seeds and save a result set")
    run.add_argument("--workload", required=True, action="append")
    run.add_argument("--seeds", required=True, type=parse_seeds)
    run.add_argument("--seconds", required=True, type=float)
    run.add_argument("--trace", type=int, default=0, choices=(0, 1))
    run.add_argument("--out", required=True)
    shw = sub.add_parser("show", help="summarize result sets")
    shw.add_argument("paths", nargs="+")
    args = parser.parse_args()

    if args.command == "show":
        show(load(args.paths))
        return 0
    runs = []
    ok = True
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workload:
        for seed in args.seeds:
            record = run_once(workload, seed, args.seconds, args.trace)
            if record is None:
                print(f"{workload} seed {seed}: no result", file=sys.stderr)
                ok = False
                continue
            ok = ok and record["exit"] == 0 and record["result"]["correct"]
            runs.append(record)
            print(f"{workload} seed {seed}: exit {record['exit']}",
                  file=sys.stderr)
            out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    show(runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
