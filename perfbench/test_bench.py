#!/usr/bin/env python3
"""The benchmark's own tests.

Usage (from the repository root; builds the program first, takes a few
minutes):

    python3 perfbench/test_bench.py

Checks that the program prints exactly the metrics BENCHMARK.json declares,
that a seed fixes every simulated value and count while another seed changes
them, that parsim-lossy runs exactly 2 workers and passes its in-program
check against the same transfers at 1 worker, and that no workload runs
more threads than the host has processors.
"""
import json
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build wrapper beside this file)

ROOT = run.ROOT
SECONDS = "1"


class Result:
    def __init__(self, stdout: str, max_threads: int, returncode: int):
        lines = stdout.strip().splitlines()
        self.returncode = returncode
        self.max_threads = max_threads
        self.final = json.loads(lines[-1])
        self.deterministic = self.line(lines, "deterministic")
        self.diagnostics = self.line(lines, "diagnostics")

    @staticmethod
    def line(lines: list, label: str) -> dict:
        return json.loads(next(
            line for line in lines if line.startswith(label + " "))
            .split(" ", 1)[1])


class BenchmarkTest(unittest.TestCase):
    binary: Path
    bench: dict
    cache: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, workload: str, seed: int, trace: int = 0) -> Result:
        key = (workload, seed, trace)
        if key not in self.cache:
            proc = subprocess.Popen(
                [str(self.binary), "--workload", workload, "--seed", str(seed),
                 "--seconds", SECONDS, "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            # Sample the thread count while the workload runs.
            max_threads = 0
            while proc.poll() is None:
                try:
                    max_threads = max(
                        max_threads, len(os.listdir(f"/proc/{proc.pid}/task")))
                except FileNotFoundError:
                    pass
                time.sleep(0.002)
            stdout, stderr = proc.communicate()
            self.assertEqual(proc.returncode, 0, stderr)
            self.cache[key] = Result(stdout, max_threads, proc.returncode)
        return self.cache[key]

    def test_metric_names_and_units_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_bench("coded-burst", 1, trace=trace)
            declared = {m["name"]: m["unit"] for m in self.bench[section]}
            printed = {n: m["unit"] for n, m in result.final["metrics"].items()}
            self.assertEqual(printed, declared, section)
            self.assertTrue(result.final["correct"])
            self.assertGreaterEqual(result.final["attempted"], 1)
            self.assertEqual(result.final["failed"], 0)

    def test_same_seed_repeats_and_other_seed_differs(self):
        for workload in [w["name"] for w in self.bench["workloads"]]:
            with self.subTest(workload=workload):
                a = self.run_bench(workload, 7)
                b = self.run_bench(workload, 7, trace=1)
                c = self.run_bench(workload, 8)
                self.assertEqual(a.deterministic, b.deterministic)
                self.assertEqual(a.final["attempted"], b.final["attempted"])
                self.assertNotEqual(a.deterministic, c.deterministic)
                # The traced run reports the same simulated outcomes.
                traced = b.final["metrics"]
                for name, value in a.deterministic.items():
                    if name in traced:
                        self.assertEqual(traced[name]["value"], value, name)

    def test_parsim_counts_do_not_depend_on_workers(self):
        # The program re-runs the first transfers at 1 worker and exits 1
        # (failing run_bench) unless every reported field is identical.
        result = self.run_bench("parsim-lossy", 7)
        self.assertEqual(result.diagnostics["parsim_workers"], 2)
        self.assertGreaterEqual(result.diagnostics["parsim_identity_checks"], 1)
        self.assertTrue(result.final["correct"])

    def test_no_workload_runs_more_threads_than_nproc(self):
        nproc = os.cpu_count() or 1
        for workload in [w["name"] for w in self.bench["workloads"]]:
            with self.subTest(workload=workload):
                result = self.run_bench(workload, 7)
                self.assertGreaterEqual(result.max_threads, 1)
                self.assertLessEqual(result.max_threads, nproc)


if __name__ == "__main__":
    unittest.main()
