#!/usr/bin/env python3
"""Builds and runs servebench, qpgc's end-to-end serving benchmark.

Run from the root of a checkout of the repository:

    python3 servebench/run.py --workload citation-local --seed 1 \
        --seconds 10 --trace 0

--workload is citation-local, social-hot-cached, web-routed-k4 or all.
The first run configures and builds the library and the benchmark (Release)
into .bench_build/servebench; later runs rebuild only what changed. Every
run first runs the checks' self-test, then the benchmark. Build output goes
to stderr; the benchmark's stdout passes through, and its last line is the
JSON result. Saved artifacts and traces go to .bench_build/servebench/out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "servebench",
         "servebench_selftest"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("servebench: %s holds no qpgc sources (CMakeLists.txt, src/); "
              "run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("servebench: build failed: %s" % err, file=sys.stderr)
        return 2

    selftest = subprocess.run([os.path.join(BUILD, "servebench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        print("servebench: the checks' self-test failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(BUILD, "servebench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--out", os.path.join(BUILD, "out")
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
