#!/usr/bin/env python3
"""Self-check: the benchmark prints exactly the metrics BENCHMARK.json names.

    python3 perfbench/tests/test_metric_names.py

Runs the perfbench binary briefly on every workload, untraced and traced, and
asserts that the printed metric names (in order) are BENCHMARK.json's
end_to_end and per_layer lists, that every value carries its declared
unit, and that no operation failed. Builds it first if needed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        run.build()

    def run_binary(self, workload, trace):
        done = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", "5",
             "--seconds", "0.5", "--trace", str(trace),
             "--expected", os.path.join(BENCH, "expected.txt")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        self.assertTrue(all(l.startswith("#") for l in lines[:-1]))
        return json.loads(lines[-1])

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_printed_names_match(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = [(m["name"], m["unit"]) for m in self.spec[key]]
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_binary(workload, trace)
                    printed = [(name, v["unit"])
                               for name, v in result["metrics"].items()]
                    self.assertEqual(printed, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
