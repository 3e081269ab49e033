#!/usr/bin/env python3
"""Unit tests for the tepic-cache-v1 kind of tepic_reports.py (stdlib
unittest only)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest
import xml.dom.minidom

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(TOOLS_DIR, "tepic_reports.py")


def base_record():
    """A hand-traced 2-set, 1-way, 16B-line run.

    Single-line blocks at bytes 0, 16, 32, 0, 16, 32 (lines 0, 1, 2;
    sets 0, 1, 0): three compulsory misses, two capacity misses and
    one hit on the undisturbed set-1 line. Every counter below is the
    exact consequence of that trace, so the validator's tiling checks
    all pass.
    """
    return {
        "config": {"sets": 2, "ways": 1, "line_bytes": 16,
                   "heatmap_epochs": 2},
        "blocks": {"fetches": 6, "l0_bypasses": 0},
        "atb": {"hits": 6, "misses": 0},
        "l1": {"accesses": 6, "hits": 1, "misses": 5,
               "miss_classes": {"compulsory": 3, "capacity": 2,
                                "conflict": 0}},
        "lines": {"fills": 5, "evictions": 3, "dead_on_fill": 3,
                  "resident_at_end": 2,
                  "eviction_use_hist": {"total": 3, "overflow": 0,
                                        "bins": [[0, 3]]}},
        "reuse": {"samples": 6, "cold": 3, "max": 2,
                  "log2_hist": {"total": 3, "overflow": 0,
                                "bins": [[2, 3]]}},
        "sets": {"accesses": [4, 2], "hits": [0, 1],
                 "fills": [4, 1], "evictions": [3, 0],
                 "dead_on_fill": [3, 0]},
        "heatmap": {"epochs": 2,
                    "accesses": [[2, 1], [2, 1]],
                    "fills": [[2, 1], [2, 0]],
                    "evictions": [[1, 0], [2, 0]]},
    }


def compressed_record():
    """Same line-level activity, but the L0 absorbed two fetches and
    the remaining misses are all compulsory — the compression win the
    Markdown report is supposed to surface."""
    rec = base_record()
    rec["blocks"] = {"fetches": 6, "l0_bypasses": 2}
    rec["l1"] = {"accesses": 4, "hits": 1, "misses": 3,
                 "miss_classes": {"compulsory": 3, "capacity": 0,
                                  "conflict": 0}}
    rec["atb"] = {"hits": 5, "misses": 1}
    return rec


def cache_doc():
    return {
        "schema": "tepic-cache-v1",
        "name": "unit_bench",
        "structure": {
            "workloads": {
                "go": {
                    "base": base_record(),
                    "compressed": compressed_record(),
                },
            },
        },
    }


def run(args):
    return subprocess.run([sys.executable, CACHE] + args,
                          capture_output=True, text=True)


class TepicCacheTest(unittest.TestCase):
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

    def rec(self, doc, scheme="base"):
        return doc["structure"]["workloads"]["go"][scheme]

    def test_valid_report_passes(self):
        result = run([self.write("CACHE_unit.json", cache_doc())])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok (1 workloads, 2 records", result.stdout)
        self.assertIn("8 L1 misses tiled", result.stdout)

    def test_schema_errors_exit_2(self):
        for mutate in (
            lambda d: d.update(schema="tepic-cache-v0"),
            lambda d: d.pop("structure"),
            lambda d: self.rec(d)["l1"].pop("miss_classes"),
            lambda d: self.rec(d)["config"].update(sets=0),
            lambda d: self.rec(d)["sets"].update(fills=[4]),
            lambda d: self.rec(d)["heatmap"].update(
                accesses=[[2, 1]]),
            lambda d: self.rec(d)["reuse"]["log2_hist"].update(
                bins=[[2]]),
        ):
            doc = cache_doc()
            mutate(doc)
            result = run([self.write("CACHE_bad.json", doc)])
            self.assertEqual(result.returncode, 2, result.stderr)

    def test_broken_3c_tiling_names_the_classes(self):
        doc = cache_doc()
        self.rec(doc)["l1"]["miss_classes"]["capacity"] = 1
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("3C classes sum to 4", result.stderr)
        self.assertIn("l1.misses = 5", result.stderr)

    def test_fetch_tiling_names_the_counters(self):
        doc = cache_doc()
        self.rec(doc)["blocks"]["l0_bypasses"] = 1
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("blocks.fetches", result.stderr)

    def test_resident_lines_must_balance(self):
        doc = cache_doc()
        self.rec(doc)["lines"]["resident_at_end"] = 7
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("lines.resident_at_end = 7", result.stderr)

    def test_eviction_histogram_must_cover_every_eviction(self):
        doc = cache_doc()
        self.rec(doc)["lines"]["eviction_use_hist"]["total"] = 2
        self.rec(doc)["lines"]["eviction_use_hist"]["bins"] = [[0, 2]]
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("eviction_use_hist.total = 2", result.stderr)

    def test_reuse_tiling_names_the_counters(self):
        doc = cache_doc()
        self.rec(doc)["reuse"]["cold"] = 2
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("reuse.samples", result.stderr)

    def test_per_set_tiling_names_the_set(self):
        doc = cache_doc()
        self.rec(doc)["sets"]["hits"] = [1, 1]
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("sets.accesses[0]", result.stderr)

    def test_heatmap_columns_must_sum_to_per_set_vectors(self):
        doc = cache_doc()
        self.rec(doc)["heatmap"]["fills"] = [[2, 1], [1, 0]]
        result = run([self.write("CACHE_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("heatmap.fills column 0", result.stderr)

    def test_markdown_tells_the_capacity_story(self):
        path = self.write("CACHE_unit.json", cache_doc())
        out = os.path.join(self.dir.name, "cache.md")
        result = run([path, "--md", out])
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out) as f:
            text = f.read()
        self.assertIn("# Cache behavior: unit_bench", text)
        self.assertIn("## go", text)
        self.assertIn("| base | 2x1x16B |", text)
        self.assertIn("| compressed | 2x1x16B |", text)
        # The miss-class delta: compressed dropped both capacity
        # misses relative to base.
        self.assertIn("**compressed** vs base: -2 misses", text)
        self.assertIn("capacity -2", text)
        self.assertIn("Reuse-distance CDF", text)

    def test_heatmap_svg_is_well_formed(self):
        path = self.write("CACHE_unit.json", cache_doc())
        svg = os.path.join(self.dir.name, "cache.svg")
        result = run([path, "--svg", svg])
        self.assertEqual(result.returncode, 0, result.stderr)
        dom = xml.dom.minidom.parse(svg)  # raises if malformed
        text = dom.toxml()
        self.assertIn("go / base", text)
        self.assertIn("go / compressed", text)
        # 2 sets x 2 epochs x 2 panels of cells + background.
        rects = dom.getElementsByTagName("rect")
        self.assertGreaterEqual(len(rects), 9)

    def test_compare_accepts_identical_structure(self):
        a = self.write("a.json", cache_doc())
        doc = cache_doc()
        doc["name"] = "other_run"  # outside "structure": exempt
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("identical structure", result.stdout)

    def test_compare_names_the_divergent_counter(self):
        a = self.write("a.json", cache_doc())
        doc = cache_doc()
        # A consistent-but-different record: one capacity miss turned
        # into a hit. Both files validate; only --compare can tell.
        rec = self.rec(doc)
        rec["l1"]["hits"] = 2
        rec["l1"]["misses"] = 4
        rec["l1"]["miss_classes"]["capacity"] = 1
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)
        self.assertIn(
            "structure.workloads.go.base.l1.hits", result.stderr)
        self.assertIn("must be identical for any --jobs", result.stderr)

    def test_compare_requires_valid_inputs(self):
        a = self.write("a.json", cache_doc())
        doc = cache_doc()
        self.rec(doc)["l1"]["miss_classes"]["conflict"] = 9
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)

    def test_no_input_is_a_usage_error(self):
        result = run([])
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
