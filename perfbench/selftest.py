#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload in smoke mode, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit; that the counts
of the traced tables run repeat exactly; that one changed digit in a table
CSV is counted as a failure; that BENCHMARK.json agrees with metrics.py; and
that the benchmark refuses to run without the program's source. About two
minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import w_tables  # noqa: E402

SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                             "--trace", trace, "--smoke")
                cls.results[(workload, trace)] = proc

    def _check(self, workload: str, trace: str, catalogue: list[tuple[str, str]]):
        proc = self.results[(workload, trace)]
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = result_line(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stdout[-3000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {name for name, _ in catalogue})
        for name, unit in catalogue:
            fig = res["metrics"][name]
            self.assertEqual(fig["unit"], unit, name)
            self.assertIsInstance(fig["value"], (int, float), name)
            self.assertTrue(math.isfinite(fig["value"]), name)
        return res

    def test_end_to_end_metrics_emitted_with_units(self):
        catalogue = [(n, u) for n, u, _, _ in metrics.END_TO_END]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = self._check(workload, "0", catalogue)
                for name, fig in res["metrics"].items():
                    self.assertGreater(fig["value"], 0, f"{workload} {name}")

    def test_per_layer_metrics_emitted_with_units(self):
        catalogue = [(m["name"], m["unit"]) for m in metrics.PER_LAYER]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, "1", catalogue)

    def test_tables_counts_repeat_exactly(self):
        m = result_line(self.results[("tables", "1")])["metrics"]
        self.assertEqual(m["risksim.cells"]["value"], 264)
        self.assertEqual(m["risksim.column_cells"]["value"], 407)
        self.assertEqual(m["core.normals_drawn"]["value"], 4 * w_tables.SMOKE_REPS * 264)


class FaultIsCounted(unittest.TestCase):
    def test_changed_csv_digit_is_a_failure(self):
        proc = bench("--workload", "tables", "--seed", str(SEED), "--seconds", "1",
                     "--smoke", "--fault", "csv-digit")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = result_line(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("CLI CSV differs", proc.stdout)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_metrics_module(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = metrics.benchmark_json()
        self.assertEqual(spec["end_to_end"], want["end_to_end"])
        self.assertEqual(spec["per_layer"], want["per_layer"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(metrics.NAMED), set(run.WORKLOADS))
        self.assertIn("setup_s", {m["name"] for m in spec["end_to_end"]})


class WithoutProgram(unittest.TestCase):
    def test_refuses_to_run_without_source(self):
        bare = HERE / "_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
