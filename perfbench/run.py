#!/usr/bin/env python3
"""Build and run the sybiltd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sybiltd checkout.  The first run configures and
builds perfbench/ (the sybiltd libraries, sybiltd_server and the perfbench
binary) into .bench_build/; later runs only rebuild what changed.  Build
output goes to stderr, so the last line of stdout is perfbench's JSON
result.  The exit code is perfbench's, or the build's when it fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return code
    return 0


def main():
    code = build()
    if code != 0:
        return code
    command = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
               "--server-bin",
               os.path.join(BUILD, "sybiltd", "server", "sybiltd_server"),
               "--trace-dir", os.path.join(BUILD, "traces")]
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
