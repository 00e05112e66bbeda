#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is (re)built from
source into .bench_build/perfbench (incremental after the first run),
then run with the same arguments. Build output goes to stderr; the
benchmark's last line of standard output is its JSON result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        fail("run from the repository root (perfbench/ not found)")
    if not os.path.isdir(os.path.join(ROOT, "src", "sim")):
        fail("simulator sources (src/) not found; nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--work-dir", WORK_DIR]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
