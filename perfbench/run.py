#!/usr/bin/env python3
"""Builds and runs the rmrn benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the benchmark program (perfbench/, which
compiles ../src) into the directory named by CARGO_TARGET_DIR, default
`.bench_build`; later calls only re-check the build.  Build output goes to
stderr.  The program's standard output is passed through unchanged: its last
line is the result object.  Exits non-zero when the build fails or a
correctness check fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build() -> Path:
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "rmrn_perfbench",
         "--parallel", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "rmrn_perfbench"


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
