#!/usr/bin/env python3
"""Tests of the benchmark itself, on the small size of every workload.

    python3 flexbench/test_flexbench.py

Checks, for each workload:
  - fingerprints and seed-fixed figures are identical at 1 lane and at
    min(nproc, 4) lanes, and across two runs;
  - the traced run reports the same seed-fixed figures as the untraced
    run (tracing is observer-only);
  - the result line has exactly the keys correct, attempted, failed and
    metrics, and its metrics are exactly BENCHMARK.json's end-to-end
    (untraced) or per-layer (traced) metrics, with their units.
And that the entry point fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark package.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
# The widest lane count the benchmark is meant for (it defaults to fewer).
WIDE_LANES = min(os.cpu_count() or 1, 4)


def run(workload, trace=0, lanes=None, seed=SEED):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
               "--small"]
    if lanes is not None:
        command += ["--lanes", str(lanes)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-2])["info"], json.loads(lines[-1])


class WorkloadTest(unittest.TestCase):
    def check_workload(self, workload):
        code, serial, result = run(workload, lanes=1)
        self.assertEqual(code, 0, serial["errors"])
        self.assertTrue(result["correct"])
        self.assertEqual(serial["stamp"]["fleet_lanes"], 1)
        _, wide, wide_result = run(workload, lanes=WIDE_LANES)
        self.assertEqual(wide["stamp"]["fleet_lanes"], WIDE_LANES)
        _, again, _ = run(workload)
        code, traced, traced_result = run(workload, trace=1)
        self.assertEqual(code, 0, traced["errors"])
        self.assertTrue(traced_result["correct"])

        self.assertTrue(serial["fingerprints"])
        for other in (wide, again, traced):
            self.assertEqual(other["fingerprints"], serial["fingerprints"])
            self.assertEqual(other["fixed"], serial["fixed"])

        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertGreaterEqual(result["attempted"], 1)
        for res, key in ((wide_result, "end_to_end"),
                         (traced_result, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
        for m in SPEC["end_to_end"]:
            self.assertGreater(wide_result["metrics"][m["name"]]["value"], 0)

    def test_placement(self):
        self.check_workload("placement")

    def test_fleet_failover(self):
        self.check_workload("fleet_failover")

    def test_fault_fuzz(self):
        self.check_workload("fault_fuzz")


class IncompleteCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            bare = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
