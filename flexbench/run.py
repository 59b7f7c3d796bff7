#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 flexbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (flexbench/CMakeLists.txt) compiles the library
sources under src/ together with flexbench.cpp into .bench_build/ (or the
directory named by CARGO_TARGET_DIR, relative to the checkout root), then
runs the benchmark binary. Its stdout is passed through unchanged, so the
last line is the result object. Extra flags after the four above
(--lanes, --small) go to the binary as they are.

Exits non-zero without printing a result when the build fails, and with
the binary's status otherwise.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "flexbench"
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds the benchmark; returns its path."""
    cmake_dir = out / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout carries only results.
        try:
            done = subprocess.run(step, stdout=sys.stderr, cwd=ROOT)
        except OSError as error:
            print(f"flexbench: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    binary = cmake_dir / "flexbench"
    return binary if binary.exists() else None


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (the build inputs)."""
    digest = hashlib.sha256()
    for top in ("src", "flexbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("flexbench: build failed", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--commit", f"{git_commit()}+src:{source_digest()}"]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans / f"{args.workload}-seed{args.seed}.json")]
    command += extra
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("flexbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
