#!/usr/bin/env python3
"""Build and run one workload of the noisebalance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call builds the library and the
benchmark binary (Release) into .bench_build/perfbench; later calls only
re-check the build.  The binary's output is passed through unchanged: its
last line is the JSON result.  Build output goes to stderr.

Exit codes: the binary's own (0 ok, 1 an output check failed, 2 bad
arguments), 2 when the library sources are missing, 3 when the build
fails, 4 when the run exceeds its time limit.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nb_perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BUILD_TIMEOUT_S = 800


def run_timeout_s(seconds):
    """Time limit of one run: a traced run measures about twice --seconds,
    plus its last rep, the replays and the set-up samples."""
    return 110 + 3 * seconds


def build():
    """Configures and builds nb_perfbench; one build at a time per checkout."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "nb_perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "noisebalance.hpp"))):
        print("perfbench: the noisebalance sources are missing next to " + HERE, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", WORK_DIR]
    child = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timeout = run_timeout_s(args.seconds)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
