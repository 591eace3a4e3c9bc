#!/usr/bin/env python3
"""Self-tests of the campaign benchmark's own code.

    python3 perfbench/selftest.py

Builds the campaign binary like run.py does, then checks, on tiny campaigns
(--scale 0.01), that:
  - the correctness gate rejects a snapshot that differs by one byte;
  - two seeds produce different inputs but the same metric names;
  - the metric names the binary prints match BENCHMARK.json, in both modes;
  - a HELLO under the wrong campaign key raises fail_ratio above 0.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in json.load(
    open(os.path.join(run.ROOT, "BENCHMARK.json")))["workloads"]]
SCALE = "0.01"


class CampaignBenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def campaign(self, workload, seed, trace, *extra):
        """Runs one tiny campaign; returns (stamp, result) as dicts."""
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as work:
            done = subprocess.run(
                [self.binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.2", "--trace", str(trace), "--scale", SCALE,
                 "--workdir", work] + list(extra),
                stdout=subprocess.PIPE, universal_newlines=True,
                timeout=run.RUN_TIMEOUT_S)
            self.assertEqual(os.listdir(work), [], "work dir left behind")
        self.assertEqual(done.returncode, 0, done.stdout)
        lines = done.stdout.strip().splitlines()
        stamp = json.loads(lines[-2][len("stamp "):])
        return stamp, json.loads(lines[-1])

    def test_gate_rejects_one_byte_difference(self):
        done = subprocess.run([self.binary, "--selftest"],
                              stdout=subprocess.PIPE, universal_newlines=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_seeds_change_inputs_not_metric_names(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                stamp1, result1 = self.campaign(workload, 1, trace)
                stamp2, result2 = self.campaign(workload, 2, trace)
                self.assertNotEqual(stamp1["input_fingerprint"],
                                    stamp2["input_fingerprint"], workload)
                self.assertEqual(sorted(result1["metrics"]),
                                 sorted(result2["metrics"]), workload)

    def test_metric_names_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, result = self.campaign(workload, 3, trace)
                run.check_result(json.dumps(result), trace == 1)
                self.assertEqual(result["failed"], 0)

    def test_wrong_campaign_key_counts_as_failure(self):
        _, result = self.campaign("full_campaign", 4, 1, "--bad-hello")
        self.assertTrue(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["fail_ratio"]["value"], 0.0)
        self.assertGreater(result["metrics"]["net.hello_refused"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
