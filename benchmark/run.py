#!/usr/bin/env python3
"""Builds taamr_bench from source, then runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. taamr_bench and the server binary it drives are
built with CMake into build-bench/ (once; later runs find them up to date).
Build output goes to stderr, so the last line of stdout is taamr_bench's JSON
result. Exits non-zero without a result when the repository's sources are
missing or the build fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: no repository sources next to benchmark/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout share the build; the lock serializes it.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "taamr_bench", "-j", "4"],
                       check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed: {e}")
    bench = os.path.join(BUILD, "taamr_bench")
    return subprocess.run([bench] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
