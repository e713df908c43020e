#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric the runner emits is declared in BENCHMARK.json with
the same unit, that correct outputs pass their checks, and that a corrupted F
or invariant column fails them.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

PROGRAM = run.load_program()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def corrupt(text: str, row: int, col: int, change) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[col] = repr(change(float(fields[col])))
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def tiny_sweep() -> workloads.Sweep:
    return workloads.Sweep(seed=5, counts={2: 3, 3: 1})


def tiny_large() -> workloads.LargeN:
    return workloads.LargeN(seed=5, n_qubits=2, t_end=1.0)


class MetricNames(unittest.TestCase):
    def assert_declared(self, metrics: dict, section: str) -> None:
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        emitted = {name: m["unit"] for name, m in metrics.items()}
        self.assertEqual(emitted, declared)
        for name, m in metrics.items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        result, _ = run.measure(tiny_sweep(), 0.0, 0, PROGRAM)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assert_declared(result["metrics"], "end_to_end")

    def test_per_layer(self):
        for workload in (tiny_sweep(), tiny_large()):
            result, record = run.measure(workload, 0.0, 1, PROGRAM)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(record["absent"], [])
            self.assert_declared(result["metrics"], "per_layer")
            self.assertGreater(result["metrics"]["integrator.stepwise_s"]["value"], 0.0)

    def test_layer_table_matches_declaration(self):
        declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]]
        self.assertEqual(declared, list(spans.LAYER_METRICS))
        self.assertLessEqual({m["name"] for m in DECLARED["workloads"]}, set(workloads.WORKLOADS))

    def test_wrappers_removed_after_trace(self):
        cli = PROGRAM["cli"]
        before = cli.run_single_csv
        with spans.Tracer().installed(PROGRAM):
            self.assertIsNot(cli.run_single_csv, before)
        self.assertIs(cli.run_single_csv, before)


class OutputChecks(unittest.TestCase):
    def one_op(self, workload):
        (op,) = workload.make_pass(0)[:1]
        return op, op.call()

    def test_run_checks_fail_on_corruption(self):
        for workload in (tiny_sweep(), tiny_large()):
            op, text = self.one_op(workload)
            op.check(text)
            for col, change in (
                (1, lambda f: f + 1e-8),  # F off its reference
                (1, lambda f: 1.0 + 1e-6),  # F above 1
                (2, lambda e: 1e-6),  # trace error
                (4, lambda p: -1e-6),  # negative population
            ):
                with self.assertRaises(checks.CheckFailed):
                    op.check(corrupt(text, 3, col, change))

    def test_figure_checks_fail_on_corruption(self):
        cli = PROGRAM["cli"]
        t_end, interval = 0.2, 0.1
        for name, text in (
            ("fig2", cli.run_time_figure("fig2", t_end=t_end, si=interval)),
            ("fig4a", cli.run_eta_figure("fig4a", t_end=t_end)),
        ):
            ref = workloads.figure_reference(name, t_end, interval)
            workloads.check_figure(name, text, ref, t_end, interval)
            with self.assertRaises(checks.CheckFailed):
                workloads.check_figure(name, corrupt(text, 2, 1, lambda f: f + 1e-8), ref, t_end, interval)

    def test_matmul_count(self):
        self.assertEqual(spans.matmuls(100), 8)
        self.assertEqual(spans.matmuls(50000), 20)
        self.assertEqual(spans.matmuls(1), 0)


if __name__ == "__main__":
    unittest.main()
