#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (--smoke).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks the output contract against BENCHMARK.json for every workload in
both modes, that an injected output mismatch is reported as a failed
operation, and that the per-layer counters repeat exactly for one seed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, seed=7):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def check_schema(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_schema(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(bench(w, 0))
                self.check_schema(res, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_schema_and_exact_counters(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = result(bench(w, 1))
                self.check_schema(first, SPEC["per_layer"])
                again = result(bench(w, 1))
                for m in SPEC["per_layer"]:
                    if m["unit"] in ("count", "bytes"):
                        self.assertEqual(first["metrics"][m["name"]],
                                         again["metrics"][m["name"]],
                                         m["name"])

    def test_injected_mismatch_is_a_failed_op(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(bench(w, 0, "--inject-mismatch", "0"))
                self.assertIs(res["correct"], False)
                self.assertEqual(res["failed"], 1)
                self.assertGreaterEqual(res["attempted"], 1)

    def test_bad_arguments_print_no_result(self):
        proc = bench(WORKLOADS[0], 0, "--inject-mismatch", "not-a-number")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
