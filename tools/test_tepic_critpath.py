#!/usr/bin/env python3
"""Unit tests for the tepic-sched-v1 kind of tepic_reports.py (stdlib
unittest only)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest
import xml.dom.minidom

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
CRITPATH = os.path.join(TOOLS_DIR, "tepic_reports.py")


def sched_doc():
    """A small, fully-consistent two-worker schedule.

    t0 (compile, 60ns) -> t1 (full, 40ns) is the critical path;
    t2 (byte, 20ns) runs on a second worker; t3 is a cache hit.
    """
    return {
        "schema": "tepic-sched-v1",
        "name": "unit_bench",
        "jobs": 2,
        "structure": {
            "task_count": 4,
            "edge_count": 2,
            "cache_hits": 1,
            "acyclic": True,
            "tasks": [
                {"id": 0, "label": "a/compile", "kind": "compile",
                 "workload": "a", "scheme": "", "cache_hit": False,
                 "deps": []},
                {"id": 1, "label": "a/full", "kind": "full",
                 "workload": "a", "scheme": "", "cache_hit": False,
                 "deps": [0]},
                {"id": 2, "label": "a/byte", "kind": "byte",
                 "workload": "a", "scheme": "", "cache_hit": False,
                 "deps": [0]},
                {"id": 3, "label": "b/hit", "kind": "hit",
                 "workload": "b", "scheme": "", "cache_hit": True,
                 "deps": []},
            ],
        },
        "timing": {
            "window": {"start_ns": 0, "end_ns": 100},
            "makespan_ns": 100,
            "total_work_ns": 120,
            "critical_path_ns": 100,
            "critical_path": [0, 1],
            "speedup": {"achievable": 1.2, "achieved": 1.2},
            "parallelism": {"bucket_ns": 50,
                            "concurrency": [1.0, 1.4]},
            "tasks": [
                {"id": 0, "enqueue_ns": 0, "start_ns": 0,
                 "finish_ns": 60, "ran": True, "worker": "w0"},
                {"id": 1, "enqueue_ns": 0, "start_ns": 60,
                 "finish_ns": 100, "ran": True, "worker": "w0"},
                {"id": 2, "enqueue_ns": 0, "start_ns": 60,
                 "finish_ns": 80, "ran": True, "worker": "w1"},
                {"id": 3, "enqueue_ns": 0, "start_ns": 0,
                 "finish_ns": 0, "ran": False, "worker": None},
            ],
            "workers": [
                {"id": "w0", "start_ns": 0, "end_ns": 100,
                 "busy_ns": 100, "tasks": 2,
                 "idle": {"ramp_ns": 0, "queue_empty_ns": 0,
                          "dep_stall_ns": 0}},
                {"id": "w1", "start_ns": 0, "end_ns": 100,
                 "busy_ns": 20, "tasks": 1,
                 "idle": {"ramp_ns": 0, "queue_empty_ns": 20,
                          "dep_stall_ns": 60}},
            ],
        },
    }


def run(args):
    return subprocess.run([sys.executable, CRITPATH] + args,
                          capture_output=True, text=True)


class TepicCritpathTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def test_valid_report_passes(self):
        result = run([self.write("SCHED_unit.json", sched_doc())])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok (4 tasks, 2 edges, acyclic", result.stdout)

    def test_schema_errors_exit_2(self):
        for mutate in (
            lambda d: d.update(schema="tepic-sched-v0"),
            lambda d: d.pop("timing"),
            lambda d: d["structure"].update(task_count=7),
            lambda d: d["structure"]["tasks"][1].update(id=5),
            lambda d: d["timing"]["tasks"][0].pop("worker"),
        ):
            doc = sched_doc()
            mutate(doc)
            result = run([self.write("SCHED_bad.json", doc)])
            self.assertEqual(result.returncode, 2, result.stderr)

    def test_forward_edge_exits_1(self):
        doc = sched_doc()
        doc["structure"]["tasks"][0]["deps"] = [1]
        result = run([self.write("SCHED_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("earlier declarations", result.stderr)

    def test_cache_hit_that_ran_exits_1(self):
        doc = sched_doc()
        doc["timing"]["tasks"][3]["ran"] = True
        result = run([self.write("SCHED_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("claims to have run", result.stderr)

    def test_overlapping_worker_intervals_exit_1(self):
        doc = sched_doc()
        # Move t2 onto w0, overlapping t0's [0, 60).
        doc["timing"]["tasks"][2]["worker"] = "w0"
        result = run([self.write("SCHED_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("at once", result.stderr)

    def test_idle_split_must_tile_the_window(self):
        doc = sched_doc()
        doc["timing"]["workers"][1]["idle"]["queue_empty_ns"] = 25
        result = run([self.write("SCHED_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("does not tile", result.stderr)

    def test_critical_path_must_be_a_dependency_chain(self):
        doc = sched_doc()
        doc["timing"]["critical_path"] = [2, 1]
        result = run([self.write("SCHED_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("not a dependency edge", result.stderr)

    def test_critical_path_length_must_match_its_chain(self):
        doc = sched_doc()
        doc["timing"]["critical_path_ns"] = 99
        result = run([self.write("SCHED_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("sum of chain durations", result.stderr)

    def test_markdown_names_the_critical_chain(self):
        path = self.write("SCHED_unit.json", sched_doc())
        out = os.path.join(self.dir.name, "sched.md")
        result = run([path, "--md", out])
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out) as f:
            text = f.read()
        self.assertIn("# Build schedule: unit_bench", text)
        self.assertIn("| 0 | a/compile | compile |", text)
        self.assertIn("| 1 | a/full | full |", text)
        self.assertIn("dependency stalls", text)
        # w1's idle split shows up in the utilization table.
        self.assertIn("| w1 | 1 |", text)

    def test_gantt_svg_is_well_formed(self):
        path = self.write("SCHED_unit.json", sched_doc())
        svg = os.path.join(self.dir.name, "sched.svg")
        result = run([path, "--svg", svg])
        self.assertEqual(result.returncode, 0, result.stderr)
        dom = xml.dom.minidom.parse(svg)  # raises if malformed
        text = dom.toxml()
        self.assertIn("unit_bench", text)
        self.assertIn("a/compile", text)
        # One rect per ran task + background + legend swatches.
        rects = dom.getElementsByTagName("rect")
        self.assertGreater(len(rects), 4)

    def test_compare_ignores_timing_differences(self):
        a = self.write("a.json", sched_doc())
        doc = sched_doc()
        doc["jobs"] = 1
        timing = doc["timing"]
        # A serial run of the same DAG: same structure, everything on
        # one worker, different clocks.
        timing["tasks"][1].update(start_ns=70, finish_ns=110,
                                  worker="main")
        timing["tasks"][0]["worker"] = "main"
        timing["tasks"][2].update(start_ns=110, finish_ns=130,
                                  worker="main")
        timing["window"]["end_ns"] = 130
        timing["makespan_ns"] = 130
        timing["critical_path_ns"] = 100
        timing["total_work_ns"] = 120
        timing["speedup"] = {"achievable": 1.2,
                             "achieved": 120 / 130}
        timing["workers"] = [
            {"id": "main", "start_ns": 0, "end_ns": 130,
             "busy_ns": 120, "tasks": 3,
             "idle": {"ramp_ns": 0, "queue_empty_ns": 0,
                      "dep_stall_ns": 10}},
        ]
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("identical structure", result.stdout)

    def test_compare_rejects_structural_drift(self):
        a = self.write("a.json", sched_doc())
        doc = sched_doc()
        doc["structure"]["tasks"][2]["scheme"] = "s9"
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)
        self.assertIn("structure.tasks[2].scheme", result.stderr)
        self.assertIn("must not depend on --jobs", result.stderr)

    def test_compare_requires_valid_inputs(self):
        a = self.write("a.json", sched_doc())
        doc = sched_doc()
        doc["timing"]["workers"][0]["busy_ns"] = 1  # inconsistent
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)

    def test_no_input_is_a_usage_error(self):
        result = run([])
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
