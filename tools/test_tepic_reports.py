#!/usr/bin/env python3
"""Unit tests for the tepic_reports.py core: loading, schema dispatch
and the exit-code contract shared by every report kind (stdlib
unittest only). Each kind's own checks are tested in its
test_*.py file."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS_DIR, "tepic_reports.py")

SCHEMAS = ("tepic-cache-v1", "tepic-hot-v1", "tepic-metrics-v1",
           "tepic-prof-v1", "tepic-sched-v1", "tepic-size-v1",
           "tepic-sweep-v1")


def metrics_doc():
    return {"schema": "tepic-metrics-v1", "counters": {"a": 1},
            "gauges": {}, "histograms": {}}


def size_doc():
    return {"schema": "tepic-size-v1", "name": "t", "workloads": {
        "fir": {"schemes": {"base": {
            "total_bits": 12,
            "tree": {"opcode": 8, "operands": {"src": 3, "dest": 1}},
            "by_function": {"main": {"B0": 12}}}}}}}


def trace_doc():
    return {"traceEvents": [
        {"name": "build", "ph": "X", "ts": 0, "dur": 5, "pid": 1,
         "tid": 1},
        {"name": "mark", "ph": "i", "ts": 3, "pid": 1, "tid": 1},
    ]}


def run(args):
    return subprocess.run([sys.executable, TOOL] + args,
                          capture_output=True, text=True)


class TepicReportsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def test_non_object_json_is_a_usage_error(self):
        for doc in ([], [{"traceEvents": []}], "x", 3, None):
            path = self.write("bad.json", doc)
            for args in ([path], ["--compare", path, path]):
                result = run(args)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertIn(f"{path}: not a JSON object",
                              result.stderr)
                self.assertNotIn("Traceback", result.stderr)

    def test_unknown_schema_lists_the_supported_ids(self):
        doc = metrics_doc()
        doc["schema"] = "tepic-bogus-v1"
        result = run([self.write("x.json", doc)])
        self.assertEqual(result.returncode, 2)
        self.assertIn("'tepic-bogus-v1'", result.stderr)
        for schema in SCHEMAS:
            self.assertIn(schema, result.stderr)

    def test_missing_schema_without_trace_events_is_a_usage_error(self):
        result = run([self.write("x.json", {"counters": {}})])
        self.assertEqual(result.returncode, 2)
        self.assertIn("missing 'schema'", result.stderr)

    def test_compare_across_kinds_is_a_usage_error(self):
        a = self.write("a.json", metrics_doc())
        b = self.write("b.json", trace_doc())
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 2)
        self.assertIn("two reports of one kind", result.stderr)

    def test_trace_files_are_recognised_without_a_schema(self):
        result = run([self.write("t.json", trace_doc())])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok (2 trace events)", result.stdout)
        doc = trace_doc()
        del doc["traceEvents"][0]["dur"]
        result = run([self.write("t.json", doc)])
        self.assertEqual(result.returncode, 2)
        self.assertIn("complete event 0 missing 'dur'", result.stderr)

    def test_traces_have_no_compare_contract(self):
        a = self.write("a.json", trace_doc())
        result = run(["--compare", a, a])
        self.assertEqual(result.returncode, 2)

    def test_mixed_kinds_validate_in_one_call(self):
        result = run([self.write("m.json", metrics_doc()),
                      self.write("t.json", trace_doc())])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stdout.count(": ok ("), 2)

    def test_renderers_a_kind_lacks_are_usage_errors(self):
        path = self.write("m.json", metrics_doc())
        out = os.path.join(self.dir.name, "out")
        for flag in ("--md", "--svg"):
            result = run([path, flag, out])
            self.assertEqual(result.returncode, 2)
            self.assertIn("tepic-metrics-v1 has no", result.stderr)
        size = self.write("s.json", {"schema": "tepic-size-v1"})
        result = run([path, "--md", out, "--size", size])
        self.assertEqual(result.returncode, 2)
        self.assertIn("--size joins into tepic-hot-v1", result.stderr)

    def test_size_ledgers_must_tile_total_bits(self):
        good = self.write("SIZE_a.json", size_doc())
        result = run([good])
        self.assertEqual(result.returncode, 0, result.stderr)
        for view in ("tree", "by_function"):
            doc = size_doc()
            rec = doc["workloads"]["fir"]["schemes"]["base"]
            rec[view] = {"x": 11}
            result = run([self.write("SIZE_b.json", doc)])
            self.assertEqual(result.returncode, 1, result.stderr)
            self.assertIn(f"fir.base.{view} leaves sum to 11",
                          result.stderr)

    def test_size_compare_names_the_divergent_leaf(self):
        doc = size_doc()
        doc["workloads"]["fir"]["schemes"]["base"]["tree"] = {
            "opcode": 9, "operands": {"src": 2, "dest": 1}}
        result = run(["--compare", self.write("a.json", size_doc()),
                      self.write("b.json", doc)])
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("workloads.fir.schemes.base.tree.opcode",
                      result.stderr)

    def test_compare_takes_no_other_inputs(self):
        a = self.write("a.json", metrics_doc())
        result = run(["--compare", a, a, a])
        self.assertEqual(result.returncode, 2)
        self.assertIn("--compare takes no other inputs", result.stderr)

    def test_modes_are_exclusive(self):
        a = self.write("a.json", metrics_doc())
        for args, message in (
                (["--diff", a, a, a], "--diff takes no other inputs"),
                (["--diff", a, a, "--fidelity", self.dir.name],
                 "--diff and --fidelity are exclusive"),
                (["--fidelity", self.dir.name, "--svg", "x.svg"],
                 "--fidelity takes no other inputs"),
                ([a, "--html", "x.html"], "--html needs --fidelity")):
            result = run(args)
            self.assertEqual(result.returncode, 2, args)
            self.assertIn(message, result.stderr)

    def test_diff_rejects_other_kinds(self):
        sched = self.write("SCHED_x.json", {"schema": "tepic-sched-v1"})
        result = run(["--diff", sched, sched])
        self.assertEqual(result.returncode, 2)
        self.assertIn("--diff compares", result.stderr)


if __name__ == "__main__":
    unittest.main()
