#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage (from the root of a tilespmv checkout):

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. Build output goes to stderr; the harness's
stdout is passed through, and its last line is the JSON result. The exit
code is the harness's (nonzero when the build fails or a check fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 870


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no tilespmv sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    cmd = [binary, *sys.argv[1:], "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
