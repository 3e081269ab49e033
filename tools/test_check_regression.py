#!/usr/bin/env python3
"""Unit tests for the regression-gate checks of
`tepic_reports.py --diff OLD NEW` over two snapshot directories
(stdlib unittest only). The ranked Markdown is tested in
test_tepic_diff.py, --fidelity in test_tepic_report.py."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS_DIR, "tepic_reports.py")


def bench_doc():
    return {
        "schema": "tepic-metrics-v1",
        "counters": {
            "fetch.base.stall_cycles": 100,
            "fetch.base.stall.mispredict": 60,
            "fetch.base.stall.l1_refill": 30,
            "fetch.base.stall.decode_stage": 0,
            "fetch.base.stall.atb_miss": 10,
            "fetch.base.l0_saved_cycles": 0,
        },
        "gauges": {"fig13.ipc.base": 1.5},
        "histograms": {},
    }


class TempDirs(unittest.TestCase):

    def setUp(self):
        self.baseline = tempfile.mkdtemp(prefix="baseline.")
        self.fresh = tempfile.mkdtemp(prefix="fresh.")
        self.addCleanup(self._cleanup)

    def _cleanup(self):
        for d in (self.baseline, self.fresh):
            for name in os.listdir(d):
                os.unlink(os.path.join(d, name))
            os.rmdir(d)

    def write(self, directory, name, doc):
        with open(os.path.join(directory, name), "w") as f:
            json.dump(doc, f)


class CheckRegressionTest(TempDirs):

    def run_check(self):
        return subprocess.run(
            [sys.executable, TOOL, "--diff", self.baseline, self.fresh],
            capture_output=True, text=True)

    def test_identical_runs_pass(self):
        self.write(self.baseline, "BENCH_x.json", bench_doc())
        self.write(self.fresh, "BENCH_x.json", bench_doc())
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_one_count_drift_fails(self):
        self.write(self.baseline, "BENCH_x.json", bench_doc())
        doc = bench_doc()
        doc["counters"]["fetch.base.stall_cycles"] += 1
        self.write(self.fresh, "BENCH_x.json", doc)
        result = self.run_check()
        self.assertEqual(result.returncode, 1)
        self.assertIn("stall_cycles", result.stderr)

    def test_missing_fresh_file_fails(self):
        self.write(self.baseline, "BENCH_x.json", bench_doc())
        result = self.run_check()
        self.assertEqual(result.returncode, 1)
        self.assertIn(f"BENCH_x.json: missing from {self.fresh}",
                      result.stderr)

    def test_prof_gauge_key_set_still_gated(self):
        doc = bench_doc()
        doc["gauges"]["prof.ops_encoded_per_sec"] = 500000.0
        self.write(self.baseline, "BENCH_x.json", doc)
        self.write(self.fresh, "BENCH_x.json", bench_doc())
        result = self.run_check()
        self.assertEqual(result.returncode, 1)
        self.assertIn("gauge prof.ops_encoded_per_sec missing from NEW",
                      result.stderr)

    def test_non_object_section_is_schema_error(self):
        self.write(self.baseline, "BENCH_x.json", bench_doc())
        doc = bench_doc()
        doc["counters"] = [1, 2]
        self.write(self.fresh, "BENCH_x.json", doc)
        result = self.run_check()
        self.assertEqual(result.returncode, 2)
        self.assertIn("BENCH_x.json: missing section 'counters'",
                      result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_empty_baseline_dir_is_usage_error(self):
        result = self.run_check()
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
