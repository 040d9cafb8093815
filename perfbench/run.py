#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench (Release). Build output goes to
standard error; the benchmark's report and its final JSON line go to
standard output. Trace files are written to .bench_build/perfbench/artifacts.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
ARTIFACTS = os.path.join(BUILD, "artifacts")
# A run must end within 180 s; the benchmark itself takes far less.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run(cmd):
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return run([os.path.join(BUILD, "perfbench_selftest")])
    os.makedirs(ARTIFACTS, exist_ok=True)
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--artifacts", ARTIFACTS])


if __name__ == "__main__":
    sys.exit(main())
