#!/usr/bin/env python3
"""Unit tests for the tepic-metrics-v1 kind of tepic_reports.py
(stdlib unittest only)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS_DIR, "tepic_reports.py")


def valid_doc():
    return {
        "schema": "tepic-metrics-v1",
        "counters": {"a.b": 3},
        "gauges": {"g": 1.5},
        "histograms": {
            "h": {"total": 2, "overflow": 0, "bins": [[1, 2]]},
        },
    }


class ValidateMetricsTest(unittest.TestCase):

    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)

    def write_doc(self, doc):
        f = tempfile.NamedTemporaryFile("w", suffix=".json",
                                        delete=False)
        self.addCleanup(os.unlink, f.name)
        json.dump(doc, f)
        f.close()
        return f.name

    def test_valid_document_passes(self):
        result = self.run_tool(self.write_doc(valid_doc()))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok", result.stdout)

    def test_missing_schema_rejected(self):
        doc = valid_doc()
        del doc["schema"]
        result = self.run_tool(self.write_doc(doc))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("missing 'schema'", result.stderr)

    def test_unknown_schema_rejected(self):
        doc = valid_doc()
        doc["schema"] = "tepic-metrics-v999"
        result = self.run_tool(self.write_doc(doc))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("unknown schema version", result.stderr)
        self.assertIn("tepic-metrics-v999", result.stderr)

    def test_histogram_sum_mismatch_rejected(self):
        doc = valid_doc()
        doc["histograms"]["h"]["total"] = 99
        result = self.run_tool(self.write_doc(doc))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("bins+overflow", result.stderr)

    def test_boolean_counter_rejected(self):
        doc = valid_doc()
        doc["counters"]["a.b"] = True
        result = self.run_tool(self.write_doc(doc))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("counter 'a.b' is not a non-negative integer",
                      result.stderr)

    def test_malformed_histogram_bin_rejected(self):
        doc = valid_doc()
        doc["histograms"]["h"]["bins"] = [[1]]
        result = self.run_tool(self.write_doc(doc))
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("is not a [key, weight] pair", result.stderr)

    def test_compare_identical_passes(self):
        path_a = self.write_doc(valid_doc())
        path_b = self.write_doc(valid_doc())
        result = self.run_tool("--compare", path_a, path_b)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_compare_masks_cache_rate_gauge_values_not_keys(self):
        doc_a = valid_doc()
        doc_a["gauges"]["cache.compressed.miss_rate"] = 0.125
        doc_b = valid_doc()
        doc_b["gauges"]["cache.compressed.miss_rate"] = 0.250
        result = self.run_tool("--compare", self.write_doc(doc_a),
                               self.write_doc(doc_b))
        self.assertEqual(result.returncode, 0, result.stderr)
        # Non-rate cache gauges stay exact...
        doc_a["gauges"]["cache.compressed.depth"] = 1.0
        doc_b["gauges"]["cache.compressed.depth"] = 2.0
        result = self.run_tool("--compare", self.write_doc(doc_a),
                               self.write_doc(doc_b))
        self.assertNotEqual(result.returncode, 0)
        # ...and a rate gauge on only one side is key-set drift.
        doc_b = valid_doc()
        result = self.run_tool("--compare", self.write_doc(doc_a),
                               self.write_doc(doc_b))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("gauges", result.stderr)

    def test_compare_masks_hot_rate_gauge_values_not_keys(self):
        doc_a = valid_doc()
        doc_a["gauges"]["hot.compressed.top10_coverage_rate"] = 0.96
        doc_a["gauges"]["hot.compressed.mispredict_rate"] = 0.007
        doc_b = valid_doc()
        doc_b["gauges"]["hot.compressed.top10_coverage_rate"] = 0.50
        doc_b["gauges"]["hot.compressed.mispredict_rate"] = 0.100
        result = self.run_tool("--compare", self.write_doc(doc_a),
                               self.write_doc(doc_b))
        self.assertEqual(result.returncode, 0, result.stderr)
        # Non-rate hot gauges stay exact...
        doc_a["gauges"]["hot.compressed.epochs"] = 16.0
        doc_b["gauges"]["hot.compressed.epochs"] = 8.0
        result = self.run_tool("--compare", self.write_doc(doc_a),
                               self.write_doc(doc_b))
        self.assertNotEqual(result.returncode, 0)
        # ...and a rate gauge on only one side is key-set drift.
        doc_b = valid_doc()
        result = self.run_tool("--compare", self.write_doc(doc_a),
                               self.write_doc(doc_b))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("gauges", result.stderr)

    def test_compare_counter_drift_rejected(self):
        doc = valid_doc()
        doc["counters"]["a.b"] = 4
        result = self.run_tool("--compare",
                               self.write_doc(valid_doc()),
                               self.write_doc(doc))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("counters", result.stderr)


if __name__ == "__main__":
    unittest.main()
