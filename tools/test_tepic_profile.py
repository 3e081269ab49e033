#!/usr/bin/env python3
"""Unit tests for the tepic-prof-v1 kind of tepic_reports.py (stdlib
unittest only)."""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
import xml.dom.minidom

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
PROFILE = os.path.join(TOOLS_DIR, "tepic_reports.py")

PHASES = ("frontend", "optimise", "backend", "emulate", "build_base",
          "build_byte", "build_stream", "build_full", "build_tailored",
          "build_att", "fetch_sim", "worker", "bench_kernel", "report",
          "other")


def zero_counters(enters=False):
    c = {"cycles": 0, "instructions": 0, "cache_misses": 0,
         "branch_misses": 0, "cpu_ns": 0}
    if enters:
        c["enters"] = 0
    return c


def prof_doc():
    doc = {
        "schema": "tepic-prof-v1",
        "name": "fig13_ipc",
        "source": "thread_cputime",
        "total": zero_counters(),
        "phases": {p: zero_counters(enters=True) for p in PHASES},
        "work": {
            "ops_encoded": 3450,
            "blocks_simulated": 790926,
            "fetch.base.blocks_simulated": 790926,
        },
        "throughput": {
            "ops_encoded_per_sec": 639592.2,
            "blocks_simulated_per_sec": 13685791.6,
            "fetch.base.blocks_per_sec": 17911460.9,
            "ipc_host": 0,
        },
        "samples": {"taken": 84, "dropped": 0},
    }
    doc["phases"]["fetch_sim"].update(cycles=170_000_000,
                                      cpu_ns=170_000_000, enters=3)
    doc["phases"]["emulate"].update(cycles=150_000_000,
                                    cpu_ns=150_000_000, enters=2)
    doc["phases"]["other"].update(cycles=4_000_000, cpu_ns=4_000_000)
    doc["total"].update(cycles=324_000_000, cpu_ns=324_000_000)
    return doc


def collapsed_text():
    return ("main;tepic::core::ArtifactEngine::build;"
            "tepic::sim::emulate 29\n"
            "main;tepic::fetch::simulateFetch 41\n"
            "main;tepic::fetch::simulateFetch;"
            "tepic::fetch::BankedCache::accessBlock 14\n")


def run(args):
    return subprocess.run([sys.executable, PROFILE] + args,
                          capture_output=True, text=True)


class TepicProfileTest(unittest.TestCase):
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

    def test_valid_report_passes_with_degradation_note(self):
        path = self.write("PROF_fig13_ipc.json", prof_doc())
        result = run([path])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok", result.stdout)
        self.assertIn("perf events unavailable", result.stdout)

    def test_disabled_source_is_a_note_not_an_error(self):
        doc = prof_doc()
        doc["source"] = "disabled"
        for phase in doc["phases"].values():
            phase.update(zero_counters(enters=True))
        doc["total"] = zero_counters()
        doc["samples"] = {"taken": 0, "dropped": 0}
        result = run([self.write("PROF_x.json", doc)])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("compiled out", result.stdout)

    def test_tiling_violation_exits_1(self):
        doc = prof_doc()
        doc["total"]["cycles"] += 7  # phases no longer tile it
        result = run([self.write("PROF_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("do not tile", result.stderr)

    def test_schema_errors_exit_2(self):
        for mutate in (
            lambda d: d.update(schema="tepic-prof-v0"),
            lambda d: d.pop("phases"),
            lambda d: d.update(source="tarot_cards"),
            lambda d: d["work"].update(ops_encoded=-1),
        ):
            doc = prof_doc()
            mutate(doc)
            result = run([self.write("PROF_bad.json", doc)])
            self.assertEqual(result.returncode, 2, result.stderr)

    def test_markdown_report_ranks_hot_phases(self):
        path = self.write("PROF_fig13_ipc.json", prof_doc())
        out = os.path.join(self.dir.name, "prof.md")
        result = run([path, "--md", out])
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out) as f:
            text = f.read()
        self.assertIn("# Host profile: fig13_ipc", text)
        # Hottest phase first; zero-entered phases are omitted.
        rows = [line for line in text.splitlines()
                if line.startswith("| fetch_sim") or
                line.startswith("| emulate")]
        self.assertEqual(len(rows), 2)
        self.assertTrue(rows[0].startswith("| fetch_sim"))
        self.assertNotIn("| build_att", text)
        self.assertIn("ops_encoded_per_sec", text)

    def test_flamegraph_svg_is_well_formed(self):
        collapsed = self.write("collapse.txt", collapsed_text())
        svg = os.path.join(self.dir.name, "flame.svg")
        result = run(["--flamegraph", collapsed, "--svg", svg,
                      "--title", "unit test"])
        self.assertEqual(result.returncode, 0, result.stderr)
        dom = xml.dom.minidom.parse(svg)  # raises if malformed
        text = dom.toxml()
        self.assertIn("simulateFetch", text)
        self.assertIn("unit test", text)
        # Wider frame (55 of 84 samples) must get a wider rect than
        # the emulate frame (29).
        rects = dom.getElementsByTagName("rect")
        self.assertGreater(len(rects), 3)

    def test_flamegraph_rejects_garbage(self):
        collapsed = self.write("collapse.txt", "not a stack line\n")
        svg = os.path.join(self.dir.name, "flame.svg")
        result = run(["--flamegraph", collapsed, "--svg", svg])
        self.assertEqual(result.returncode, 2)

    def test_compare_accepts_identical_contract(self):
        a = self.write("a.json", prof_doc())
        doc = prof_doc()
        # Host counters may differ arbitrarily between runs...
        doc["phases"]["fetch_sim"]["cycles"] = 200_000_000
        doc["phases"]["fetch_sim"]["cpu_ns"] = 200_000_000
        doc["total"]["cycles"] = 354_000_000
        doc["total"]["cpu_ns"] = 354_000_000
        doc["throughput"]["ops_encoded_per_sec"] = 999.0
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_compare_rejects_work_counter_drift(self):
        a = self.write("a.json", prof_doc())
        doc = prof_doc()
        doc["work"]["ops_encoded"] += 1  # ...but work must not
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)
        self.assertIn("work.ops_encoded", result.stderr)

    def test_compare_rejects_gauge_key_drift(self):
        a = self.write("a.json", prof_doc())
        doc = prof_doc()
        del doc["throughput"]["fetch.base.blocks_per_sec"]
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)
        self.assertIn("throughput.fetch.base.blocks_per_sec",
                      result.stderr)


if __name__ == "__main__":
    unittest.main()
