#!/usr/bin/env python3
"""Builds and runs the FLICK service-plane benchmark.

    python3 flickbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 flickbench/run.py --selftest

Run from the root of a source checkout. The platform and the benchmark
binary are compiled from source (CMake, Release) into the directory named by
CARGO_TARGET_DIR, default `.bench_build`, relative to the checkout root. Build
output goes to stderr; the binary's report goes to stdout and its last line
is one JSON object (see flickbench/METHODOLOGY.md).
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    out = build_dir() / "flickbench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return out / "flickbench"


def main() -> int:
    binary = build()
    sys.stdout.flush()
    try:
        done = subprocess.run([str(binary)] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
