#!/usr/bin/env python3
"""Unit tests for the ranked size/metrics diff of
`tepic_reports.py --diff OLD NEW` (stdlib unittest only). The gate's
exactness and band checks are tested in test_check_regression.py."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS_DIR, "tepic_reports.py")


def metrics_doc():
    return {
        "schema": "tepic-metrics-v1",
        "counters": {
            "size.base.ops": 5840,
            "size.base.total_bits": 5840,
            "size.tailored.field.Src1": 480,
            "size.tailored.field.Dest": 400,
            "size.tailored.header.tail": 146,
            "size.tailored.align_pad": 30,
            "size.tailored.total_bits": 1056,
        },
        "gauges": {"fig05.ratio.tailored": 0.1808},
        "histograms": {
            "size.huff-byte.codelen": {
                "total": 3, "overflow": 0, "bins": [[2, 1], [4, 2]],
            },
        },
    }


def size_doc():
    return {
        "schema": "tepic-size-v1",
        "name": "fig05_compression",
        "workloads": {
            "fir": {
                "schemes": {
                    "tailored": {
                        "total_bits": 1056,
                        "tree": {
                            "field": {"Src1": 480, "Dest": 400},
                            "header": {"tail": 146},
                            "align_pad": 30,
                        },
                        "by_function": {
                            "func": {"main": {"b0": 1026},
                                     "main/align_pad": 30},
                        },
                    },
                },
            },
        },
    }


class TempDirs(unittest.TestCase):

    def setUp(self):
        self.old_dir = tempfile.mkdtemp(prefix="diff_old.")
        self.new_dir = tempfile.mkdtemp(prefix="diff_new.")
        self.addCleanup(self._cleanup)

    def _cleanup(self):
        for d in (self.old_dir, self.new_dir):
            for name in os.listdir(d):
                os.unlink(os.path.join(d, name))
            os.rmdir(d)

    def write(self, directory, name, doc):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_diff(self, *args):
        return subprocess.run([sys.executable, TOOL, "--diff", *args],
                              capture_output=True, text=True)


class TepicDiffTest(TempDirs):

    def test_identical_snapshots_exit_zero(self):
        a = self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        b = self.write(self.new_dir, "BENCH_x.json", metrics_doc())
        result = self.run_diff(a, b)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("identical", result.stdout)

    def test_injected_field_drift_is_top_ranked(self):
        a = self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        doc = metrics_doc()
        # One field grows by a full bit per op: the responsible leaf
        # must outrank everything, and the scheme total must move.
        doc["counters"]["size.tailored.field.Src1"] += 146
        doc["counters"]["size.tailored.total_bits"] += 146
        b = self.write(self.new_dir, "BENCH_x.json", doc)
        result = self.run_diff(a, b)
        self.assertEqual(result.returncode, 1, result.stderr)
        lines = result.stdout.splitlines()
        rank1 = [ln for ln in lines if ln.startswith("| 1 |")]
        self.assertEqual(len(rank1), 1, result.stdout)
        self.assertIn("size.tailored.field.Src1", rank1[0])
        self.assertIn("| tailored |", rank1[0])
        self.assertIn("size.tailored.total_bits", result.stdout)

    def test_totals_never_outrank_their_leaves(self):
        a = self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        doc = metrics_doc()
        doc["counters"]["size.tailored.field.Src1"] += 10
        doc["counters"]["size.tailored.align_pad"] += 2
        doc["counters"]["size.tailored.total_bits"] += 12
        b = self.write(self.new_dir, "BENCH_x.json", doc)
        result = self.run_diff(a, b)
        self.assertEqual(result.returncode, 1)
        grew = result.stdout.split("### What grew", 1)[1]
        self.assertNotIn("total_bits", grew)
        self.assertIn("size.tailored.field.Src1", grew)

    def test_size_report_diff_names_function(self):
        a = self.write(self.old_dir, "SIZE_x.json", size_doc())
        doc = size_doc()
        scheme = doc["workloads"]["fir"]["schemes"]["tailored"]
        scheme["tree"]["field"]["Src1"] += 64
        scheme["total_bits"] += 64
        scheme["by_function"]["func"]["main"]["b0"] += 64
        b = self.write(self.new_dir, "SIZE_x.json", doc)
        result = self.run_diff(a, b)
        self.assertEqual(result.returncode, 1)
        self.assertIn("fir/tailored/tree/field/Src1", result.stdout)
        self.assertIn("fir/tailored/func/main/b0", result.stdout)

    def test_directory_mode_pairs_by_name(self):
        self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        self.write(self.old_dir, "SIZE_x.json", size_doc())
        self.write(self.new_dir, "BENCH_x.json", metrics_doc())
        self.write(self.new_dir, "SIZE_x.json", size_doc())
        self.write(self.new_dir, "BENCH_only_new.json", metrics_doc())
        result = self.run_diff(self.old_dir, self.new_dir)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("BENCH_only_new.json", result.stdout)
        self.assertIn("skipped", result.stdout)
        self.assertIn("2 snapshot pair(s)", result.stdout)

    def test_histogram_bin_drift_detected(self):
        a = self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        doc = metrics_doc()
        doc["histograms"]["size.huff-byte.codelen"]["bins"] = \
            [[2, 1], [4, 1], [5, 1]]
        b = self.write(self.new_dir, "BENCH_x.json", doc)
        result = self.run_diff(a, b)
        self.assertEqual(result.returncode, 1)
        self.assertIn("size.huff-byte.codelen.bin4", result.stdout)

    def test_prof_gauge_on_one_side_only_fails(self):
        a = self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        doc = metrics_doc()
        doc["gauges"]["prof.ops_encoded_per_sec"] = 500000.0
        b = self.write(self.new_dir, "BENCH_x.json", doc)
        result = self.run_diff(a, b)
        self.assertEqual(result.returncode, 1)
        self.assertIn("gauge prof.ops_encoded_per_sec missing from OLD",
                      result.stderr)

    def test_out_file_and_missing_input_usage_error(self):
        a = self.write(self.old_dir, "BENCH_x.json", metrics_doc())
        out = os.path.join(self.new_dir, "report.md")
        result = self.run_diff(a, a, "--md", out)
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out) as f:
            self.assertIn("identical", f.read())
        result = self.run_diff(a, os.path.join(self.new_dir, "nope"))
        self.assertEqual(result.returncode, 2)

    def test_unknown_schema_usage_error(self):
        a = self.write(self.old_dir, "BENCH_x.json",
                       {"schema": "something-else"})
        result = self.run_diff(a, a)
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown schema", result.stderr)


if __name__ == "__main__":
    unittest.main()
