#!/usr/bin/env python3
"""Unit tests for the paper-fidelity report of
`tepic_reports.py --fidelity DIR` (stdlib unittest only)."""

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


def fig10_doc():
    return {
        "schema": "tepic-metrics-v1",
        "counters": {},
        "gauges": {
            "fig10.decoder_kt.byte": 96.64,
            "fig10.decoder_kt.stream": 502.1,
            "fig10.decoder_kt.full": 935.7,
            "fig10.decoder_kt.tailored": 2.42,
        },
        "histograms": {
            "size.huff-byte.codelen": {
                "total": 4, "overflow": 0,
                "bins": [[2, 1], [3, 1], [4, 2]],
            },
        },
    }


class TepicReportTest(unittest.TestCase):

    def setUp(self):
        self.input_dir = tempfile.mkdtemp(prefix="report_in.")
        self.out_dir = tempfile.mkdtemp(prefix="report_out.")
        self.addCleanup(self._cleanup)

    def _cleanup(self):
        for d in (self.input_dir, self.out_dir):
            for name in os.listdir(d):
                os.unlink(os.path.join(d, name))
            os.rmdir(d)

    def write(self, name, doc):
        with open(os.path.join(self.input_dir, name), "w") as f:
            json.dump(doc, f)

    def run_report(self, *extra):
        return subprocess.run(
            [sys.executable, TOOL, "--fidelity", self.input_dir,
             *extra],
            capture_output=True, text=True)

    def test_report_renders_and_checks_tiling(self):
        self.write("BENCH_fig13_ipc.json", bench_doc())
        out_md = os.path.join(self.out_dir, "report.md")
        out_html = os.path.join(self.out_dir, "report.html")
        result = self.run_report("--md", out_md, "--html", out_html)
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out_md) as f:
            text = f.read()
        # 60 + 30 + 0 + 10 == 100: the tiling row must say pass.
        self.assertIn("| base | 100 | 100 | 0 | pass |", text)
        with open(out_html) as f:
            self.assertIn("<table>", f.read())

    def test_report_flags_broken_tiling(self):
        doc = bench_doc()
        doc["counters"]["fetch.base.stall.mispredict"] = 61
        self.write("BENCH_fig13_ipc.json", doc)
        result = self.run_report()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("| base | 100 | 101 | 0 | FAIL |",
                      result.stdout)

    def test_codelen_section_renders(self):
        self.write("BENCH_fig10_decoder.json", fig10_doc())
        result = self.run_report()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("Huffman codeword lengths", result.stdout)
        # 4 codes, min 2, mean (2+3+4+4)/4 = 3.25, max 4.
        self.assertIn("| huff-byte | 4 | 2 | 3.25 | 4 |",
                      result.stdout)

    def test_missing_codelen_histograms_degrade_to_note(self):
        doc = fig10_doc()
        doc["histograms"] = {}
        self.write("BENCH_fig10_decoder.json", doc)
        result = self.run_report()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertNotIn("Huffman codeword lengths", result.stdout)
        self.assertIn("no size.*.codelen histograms", result.stdout)

    def test_missing_gauge_section_degrades_to_note(self):
        doc = bench_doc()
        del doc["gauges"]
        self.write("BENCH_fig13_ipc.json", doc)
        result = self.run_report()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("section 'gauges' missing", result.stdout)
        # The gauge row itself degrades to a "missing" warn row.
        self.assertIn("[fig13.ipc.base missing]", result.stdout)

    def test_malformed_section_degrades_to_note(self):
        doc = fig10_doc()
        doc["histograms"] = "not-an-object"
        self.write("BENCH_fig10_decoder.json", doc)
        result = self.run_report()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("section 'histograms' malformed", result.stdout)

    def test_malformed_histogram_row_is_skipped_with_note(self):
        doc = fig10_doc()
        doc["histograms"]["size.huff-full.codelen"] = {"bins": "bad"}
        self.write("BENCH_fig10_decoder.json", doc)
        result = self.run_report()
        self.assertEqual(result.returncode, 0, result.stderr)
        # The good alphabet still renders; the bad one is noted.
        self.assertIn("| huff-byte | 4 |", result.stdout)
        self.assertIn("'size.huff-full.codelen' malformed",
                      result.stdout)

    def test_unwritable_output_is_usage_error(self):
        self.write("BENCH_fig13_ipc.json", bench_doc())
        missing = os.path.join(self.out_dir, "nope", "x")
        for flag in ("--md", "--html"):
            result = self.run_report(flag, missing)
            self.assertEqual(result.returncode, 2, flag)
            self.assertIn(f"error: {missing}", result.stderr)
            self.assertNotIn("Traceback", result.stderr)

    def test_missing_input_dir_is_usage_error(self):
        result = subprocess.run(
            [sys.executable, TOOL, "--fidelity",
             os.path.join(self.out_dir, "nope")],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 2)
        self.assertIn("not found", result.stderr)


if __name__ == "__main__":
    unittest.main()
