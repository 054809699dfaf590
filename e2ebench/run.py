#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build goes to .bench_build/e2ebench
(configured once, then brought up to date on every run). The benchmark's
standard output is passed through, so its last line is the result JSON.
Exits non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_JOBS = "3"


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] +
                     (["-G", "Ninja"] if _have("ninja") else []))
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "e2ebench")
    result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
