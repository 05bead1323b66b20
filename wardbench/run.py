#!/usr/bin/env python3
"""Build and run the ward benchmark.

    python3 wardbench/run.py --workload ward-paper --seed 1 --seconds 20 --trace 0
    python3 wardbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
library and the benchmark (Release) under .bench_build/wardbench; later runs
reuse that build. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every decision matched the oracle.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "wardbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("wardbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(BUILD, "wardbench_selftest")]).returncode
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "wardbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
