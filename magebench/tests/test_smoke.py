"""Tiny-size smoke runs of every workload through the real entry point: builds
the driver if needed, runs each workload shrunk with --size, untraced and
traced, and requires the correctness gate to pass and the result to carry
exactly the metrics BENCHMARK.json names. The first run builds the simulator
(about a minute on four cores).

    python3 -m unittest discover -s magebench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed",
           "3", "--seconds", "0.2", "--trace", str(trace), "--size", "0.125"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(res["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        return res["metrics"]

    def test_workloads_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 0)
                self.assertEqual(m["ops_ok_frac"]["value"], 1.0)
                self.assertGreater(m["wall_ns_per_fault"]["value"], 0)

    def test_workloads_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1)
                spans = [v["value"] for k, v in m.items() if k.startswith("span.")]
                self.assertAlmostEqual(sum(spans), 1.0, places=6)
                if w["name"] == "tenants_fleet":
                    self.assertGreater(m["fleet.degraded_reads"]["value"], 0)
                    self.assertGreater(m["resilience.rdma_retries"]["value"], 0)
                    self.assertEqual(m["fleet.slots_lost"]["value"], 0)

    def test_rejects_unknown_workload(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
