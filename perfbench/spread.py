#!/usr/bin/env python3
"""Measures the seed-to-seed spread of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workload paper-mix --runs 10 [--first-seed 1]
                                [--seconds <s>]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) with
--trace 0 and prints, for each end-to-end metric, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:20s} median {med:12.6g}  spread {spread:6.3f}  "
              f"bound {bounds.get(name, float('nan'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
