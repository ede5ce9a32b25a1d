#!/usr/bin/env python3
"""Build the oocc benchmark from this checkout's sources, then run it.

Usage (from the root of the checkout):

    python3 benchmark/run.py --workload jacobi --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark binary (see benchmark/README.md).
The build goes to .bench_build/ at the root of the checkout, is incremental,
and its log goes to standard error, so the last line of standard output is
the benchmark's result object. Exits non-zero when the build fails.
Temporary files of the compiler and the benchmark go to .bench_build/tmp, so
nothing is written outside the checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(CMAKE_DIR, "oocc_benchmark")
JOBS = "4"
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))


def build():
    """Configure (first time only) and build the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "oocc_benchmark",
                  "-j", JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as err:
            print(f"benchmark build: cannot run {cmd[0]}: {err}",
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"benchmark build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not build():
        return 1
    work = os.path.join(BUILD_ROOT, "work")
    traces = os.path.join(ROOT, ".bench_trace")
    cmd = [BINARY, "--work-dir", work, "--trace-dir", traces] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main())
