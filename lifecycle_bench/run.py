#!/usr/bin/env python3
"""Builds and runs the end-to-end lifecycle benchmark.

Run from the repository root:

    python3 lifecycle_bench/run.py --workload exec_chain --seed 7 \
        --seconds 20 --trace 0

The benchmark compiles the library from ../src as Release into the build
directory (CARGO_TARGET_DIR when set, else .bench_build), then replaces this
process with the benchmark binary. Build output goes to stderr; the last
line of stdout is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"lifecycle_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {REPO_ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_cmd = ["cmake", "--build", build_dir, "--target",
                   "lifecycle_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "lifecycle_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(
        REPO_ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--work-dir", work_dir])


if __name__ == "__main__":
    main()
