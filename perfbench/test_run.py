"""Tests of the benchmark harness on small stand-in instances.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# The ten figures the summary lines name on every untraced run.
SUMMARY = ("pass_s", "pass_cpu_s", "setup_s", "peak_rss_mb", "error_rate", "bound_value",
           "task.path7_r6_cpu_s", "task.tree_a_r5_cpu_s", "task.cycle8_all_cpu_s",
           "task.petersen_all_cpu_s")

# Same task names as the real exact-pi table, on graphs that solve in milliseconds.
SMALL_EXACT_PI = (
    ("path7_r6", lambda f: f.path(4), 3, 8, True),
    ("tree_a_r5", lambda f: f.tree_from_parents([-1, 0, 0, 0]), 1, 5, True),
    ("cycle8_all", lambda f: f.cycle(4), None, 4, False),
    ("petersen_all", lambda f: f.complete(4), None, 4, False),
)
SMALL_WEIGHT_ORACLE = (("path3", lambda f: f.path(3), (4, 3, 4)),)


def small_instances(exact=SMALL_EXACT_PI):
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(workloads, "EXACT_PI", exact))
    stack.enter_context(mock.patch.object(workloads, "BRUHAT_SIZE", 3))
    stack.enter_context(mock.patch.object(workloads, "WEIGHT_ORACLE", SMALL_WEIGHT_ORACLE))
    stack.enter_context(mock.patch.object(run, "TRACE_DIR", Path(stack.enter_context(
        tempfile.TemporaryDirectory()))))
    return stack


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    return code, out.getvalue().splitlines()


class MetricsTest(unittest.TestCase):
    def test_every_benchmark_metric_is_emitted_with_its_unit(self):
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]), sorted(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace), small_instances():
                    code, lines = bench(name, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == 0:
                        named = {line.split()[0] for line in lines[:-1]}
                        self.assertLessEqual(set(SUMMARY), named)

    def test_bruhat_bound_reports_the_certified_bound(self):
        with small_instances():
            code, lines = bench("bruhat-bound", 1)
        metrics = json.loads(lines[-1])["metrics"]
        self.assertEqual(code, 0)
        self.assertEqual(metrics["bound_value"]["value"], 8)  # C6 = bruhat(3), pi = 8
        self.assertGreater(metrics["lp.solves"]["value"], 0)


class ErrorRateTest(unittest.TestCase):
    def test_wrong_reference_counts_as_an_error_instead_of_crashing(self):
        wrong = (("path7_r6", lambda f: f.path(4), 3, 9, True),) + SMALL_EXACT_PI[1:]
        with small_instances(wrong):
            code, lines = bench("exact-pi", 0)
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        passes = result["attempted"] // len(wrong)
        self.assertEqual(result["failed"], passes)
        error_rate = next(line for line in lines if line.startswith("error_rate"))
        self.assertAlmostEqual(float(error_rate.split()[1]), 1 / len(wrong))

    def test_raising_task_counts_as_an_error(self):
        disconnected = SMALL_EXACT_PI[:3] + (
            ("petersen_all", lambda f: f.new_graph(2, []), None, 2, False),)
        with small_instances(disconnected):
            code, lines = bench("exact-pi", 0)
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertEqual(result["failed"], result["attempted"] // 4)


class ProvenanceTest(unittest.TestCase):
    def test_refuses_a_package_outside_the_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            fake = Path(tmp) / "pebbling"
            fake.mkdir()
            (fake / "__init__.py").write_text("")
            with mock.patch.object(run, "PACKAGE_DIR", fake), small_instances():
                code, lines = bench("exact-pi", 0)
        self.assertEqual(code, 2)
        self.assertFalse(any(line.startswith("{") for line in lines))

    def test_exits_without_a_result_when_src_is_missing(self):
        with mock.patch.object(run, "PACKAGE_DIR", run.ROOT / "no-such-dir" / "pebbling"):
            code, lines = bench("exact-pi", 0)
        self.assertEqual(code, 2)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
