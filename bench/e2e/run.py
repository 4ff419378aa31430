#!/usr/bin/env python3
"""Build lbchat_e2e from this checkout and run it.

    python3 bench/e2e/run.py --workload lbchat16 --seed 1 --seconds 20 --trace 0

Every argument is passed on to lbchat_e2e (see bench/e2e/README.md). The build
goes to .bench_build/e2e at the root of the checkout and is reused while it is
up to date; its output goes to stderr, so the last line on stdout is the
benchmark's JSON result.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BUILD_JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the repository sources (src/) are missing next to bench/e2e")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date. The
    # configure step always runs, so the run stamp names the current revision.
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                  "--target", "lbchat_e2e", "lbchat_e2e_diff"]]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "lbchat_e2e")
    args = [binary, "--benchmark", os.path.join(ROOT, "BENCHMARK.json")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
