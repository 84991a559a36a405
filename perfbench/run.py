#!/usr/bin/env python3
"""Builds the join-path benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zipf_hit --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ (configured once, then rebuilt
incrementally). Build output goes to stderr; the benchmark's report goes to
stdout and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. The exit code is the benchmark's (non-zero on a wrong result or
a failed build). See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("zipf_hit", "uniform_rent", "zipf_rw")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return rc
    return run(["cmake", "--build", BUILD_DIR, "--target", "joinpath",
                "-j", "4"], BUILD_TIMEOUT_S, sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the library with the repository's own build
    # file; without the sources there is nothing to measure.
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src/joinopt")
            and os.path.isfile("perfbench/CMakeLists.txt")):
        print("error: run from the repository root (CMakeLists.txt, "
              "src/joinopt and perfbench/ are required)", file=sys.stderr)
        return 2

    rc = build()
    if rc != 0:
        print("error: build failed", file=sys.stderr)
        return rc or 1
    sys.stdout.flush()
    return run([os.path.join(BUILD_DIR, "joinpath"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
