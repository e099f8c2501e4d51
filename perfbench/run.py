#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the seemore
sources) under .bench_build/; later calls only rebuild what changed. Build
output goes to standard error; the benchmark's standard output, whose last
line is the result JSON, passes through unchanged.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("lion-echo-tcp", "lion-kv-durable-tcp", "paper-suite-sim")
# A run measures for --seconds plus a few seconds of set-up; anything far
# beyond that is a hung cluster.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark binaries; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "seemore_node", "-j", "4"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace,
               "--work-dir=" + WORK_DIR]
    # Its own process group, so a hung run can be stopped together with the
    # node processes it spawned.
    bench = subprocess.Popen(command, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
