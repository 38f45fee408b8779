#!/usr/bin/env python3
"""Builds the wall-time benchmark (Release) and runs one workload.

    python3 perfbench/run.py --workload <explore|cold-scan|join-heavy|mixed-rw>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--out <result.json>]

Run from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); snapshots
and span files land in a run directory beside it. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero, printing no result, when the engine cannot be built here.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "cold-scan", "join-heavy", "mixed-rw")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds trinit_bench; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        result = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "trinit_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(build_dir, "trinit_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(os.path.join(root, "build"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run_dir = os.path.join(root, "run")
    os.makedirs(run_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", run_dir]
    if args.out:
        command += ["--out", args.out]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
