#!/usr/bin/env python3
"""Tests of the repository benchmark.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build the benchmark (and its C++ unit tests) into .bench_build, check
BENCHMARK.json against the metric catalogue, run every workload at a tiny
size in both modes, and check that the command fails without the engine
sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_small(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, lines, json.loads(lines[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        bench = load_benchmark()
        self.assertEqual(sorted(bench), ["command", "end_to_end", "paths",
                                         "per_layer", "run_seconds",
                                         "workloads"])
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        names = []
        for metric in bench["end_to_end"]:
            self.assertEqual(sorted(metric), ["better", "bound", "name",
                                              "unit"])
            self.assertLessEqual(metric["bound"], 0.25)
            names.append(metric["name"])
        for metric in bench["per_layer"]:
            self.assertEqual(sorted(metric), ["better", "name", "unit"])
            names.append(metric["name"])
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class CppUnitTest(unittest.TestCase):
    def test_helpers(self):
        binary = run.build("perfbench_test")
        if binary is None or not os.path.exists(binary):
            self.skipTest("GoogleTest not installed")
        completed = subprocess.run([binary], stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
        self.assertEqual(completed.returncode, 0, completed.stdout)


class SmallRunTest(unittest.TestCase):
    """Every workload, both modes: every declared metric with its unit."""

    def check(self, workload, trace):
        bench = load_benchmark()
        declared = bench["per_layer" if trace else "end_to_end"]
        code, lines, result = run_small(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        # The human-readable lines name every metric with its unit.
        for metric in declared:
            self.assertTrue(any(line.split()[:2] == ["metric", metric["name"]]
                                and line.split()[-1] == metric["unit"]
                                for line in lines), metric["name"])
        info = {line.split()[1] for line in lines if line.startswith("info")}
        for key in ("seed", "doc.elements", "doc.bytes", "views.live_pages",
                    "pool.pages", "samples.query_cpu", "samples.beyond_p99",
                    "host.steal_share", "host.loadavg_1m"):
            self.assertIn(key, info)
        return result

    def test_fig5_cold(self):
        self.check("fig5-cold", 0)
        traced = self.check("fig5-cold", 1)
        self.assertGreater(traced["metrics"]["trace.spans"]["value"], 0)

    def test_serve_zipf(self):
        self.check("serve-zipf", 0)
        traced = self.check("serve-zipf", 1)
        self.assertEqual(traced["metrics"]["plan.cache_hit_ratio"]["value"], 1)
        self.assertGreater(
            traced["metrics"]["server.frame_bytes_per_query"]["value"], 0)

    def test_update_mix(self):
        self.check("update-mix", 0)
        traced = self.check("update-mix", 1)
        self.assertEqual(traced["metrics"]["view.relabels"]["value"], 0)
        self.assertGreater(
            traced["metrics"]["view.delta_views_per_batch"]["value"], 0)
        self.assertGreater(
            traced["metrics"]["update.write_bytes_per_op"]["value"], 0)


class StandaloneFailureTest(unittest.TestCase):
    def test_fails_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fig5-cold", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(completed.returncode, 0)
            self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
