#!/usr/bin/env python3
"""Unit tests for the tepic-hot-v1 kind of tepic_reports.py (stdlib
unittest only)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest
import xml.dom.minidom

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
HOT = os.path.join(TOOLS_DIR, "tepic_reports.py")


def base_record():
    """A hand-traced 6-event run over 4 static blocks.

    The dynamic trace is b0 b1 b0 b1 b0 b2 with per-fetch cycles
    2/3/2/3/2/5 and stalls 0/1/0/1/0/3. Top-2 export: b0 (3 fetches)
    and b1 (2); b2's single fetch folds into "rest". Site b1 made one
    mispredict whose stall (3 cycles) lands at the next event; b0 made
    one more whose bubble was never consumed (last prediction of the
    run). Every counter below is the exact consequence of that trace,
    so all of the validator's tiling identities hold.
    """
    return {
        "config": {"static_blocks": 4, "phase_epochs": 2,
                   "top_blocks": 2},
        "totals": {"blocks_simulated": 6, "cycles": 17,
                   "stall_cycles": 5, "executed_blocks": 3},
        "blocks": {
            "top": [[0, 3, 6, 0], [1, 2, 6, 2]],
            "rest": {"fetches": 1, "cycles": 5, "stall": 3},
            "coverage": [3, 5],
        },
        "functions": {
            "main": {"static_blocks": 2, "executed_blocks": 2,
                     "fetches": 5, "cycles": 12, "stall": 2},
            "kernel": {"static_blocks": 2, "executed_blocks": 1,
                       "fetches": 1, "cycles": 5, "stall": 3},
        },
        "branch_sites": {
            "totals": {"predictions": 6, "taken": 4, "not_taken": 2,
                       "mispredicts": 2,
                       "mispredict_stall_cycles": 3,
                       "unconsumed_mispredicts": 1},
            "top": [[1, 2, 0, 1, 3], [0, 2, 1, 1, 0]],
            "rest": {"taken": 0, "not_taken": 1, "mispredicts": 0,
                     "mispredict_stall": 0},
        },
        "phase": {
            "block_ids": [0, 1],
            "matrix": [[2, 2], [1, 0]],
            "rest": [0, 1],
        },
    }


def compressed_record():
    """Same trace on the compressed organisation: decode pressure
    doubles the b2 stall, all else identical."""
    rec = base_record()
    rec["totals"]["cycles"] = 20
    rec["totals"]["stall_cycles"] = 8
    rec["blocks"]["rest"] = {"fetches": 1, "cycles": 8, "stall": 6}
    rec["functions"]["kernel"]["cycles"] = 8
    rec["functions"]["kernel"]["stall"] = 6
    return rec


def hot_doc():
    return {
        "schema": "tepic-hot-v1",
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


def size_doc():
    """A tepic-size-v1 skeleton whose huff-full image (what the fetch
    simulator's "compressed" organisation decodes) gives kernel 3x the
    bits of main."""
    return {
        "schema": "tepic-size-v1",
        "name": "unit_bench",
        "workloads": {
            "go": {
                "schemes": {
                    "huff-full": {
                        "total_bits": 400,
                        "by_function": {
                            "func": {
                                "main": {"b0": 60, "b1": 40},
                                "kernel": {"b0": 200, "b1": 100},
                            },
                        },
                    },
                },
            },
        },
    }


def run(args):
    return subprocess.run([sys.executable, HOT] + args,
                          capture_output=True, text=True)


class TepicHotTest(unittest.TestCase):
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
        result = run([self.write("HOT_unit.json", hot_doc())])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok (1 workloads, 2 records", result.stdout)
        self.assertIn("12 fetches tiled per block", result.stdout)
        self.assertIn("4 mispredicts tiled per site", result.stdout)

    def test_schema_errors_exit_2(self):
        for mutate in (
            lambda d: d.update(schema="tepic-hot-v0"),
            lambda d: d.pop("structure"),
            lambda d: self.rec(d)["config"].update(phase_epochs=0),
            lambda d: self.rec(d)["config"].update(top_blocks=9),
            lambda d: self.rec(d)["blocks"]["top"][0].pop(),
            lambda d: self.rec(d)["blocks"].update(coverage=[3]),
            lambda d: self.rec(d)["functions"]["main"].pop("stall"),
            lambda d: self.rec(d)["branch_sites"].pop("rest"),
            lambda d: self.rec(d)["phase"].update(matrix=[[2, 2]]),
        ):
            doc = hot_doc()
            mutate(doc)
            result = run([self.write("HOT_bad.json", doc)])
            self.assertEqual(result.returncode, 2, result.stderr)

    def test_broken_block_tiling_names_blocks_simulated(self):
        # The CI drift self-check uses exactly this perturbation.
        doc = hot_doc()
        self.rec(doc)["blocks"]["top"][0][1] = 4
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("per-block fetches must tile blocks_simulated",
                      result.stderr)
        self.assertIn("top 6 + rest 1 != 6", result.stderr)

    def test_coverage_must_be_the_prefix_sum(self):
        doc = hot_doc()
        self.rec(doc)["blocks"]["coverage"] = [3, 6]
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("coverage[1] = 6 is not the prefix sum",
                      result.stderr)

    def test_function_rollup_must_tile(self):
        doc = hot_doc()
        self.rec(doc)["functions"]["main"]["fetches"] = 4
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("per-function fetches must tile the total",
                      result.stderr)

    def test_per_site_mispredicts_must_tile(self):
        doc = hot_doc()
        self.rec(doc)["branch_sites"]["totals"]["mispredicts"] = 3
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("per-site mispredicts must tile", result.stderr)

    def test_one_prediction_per_event(self):
        doc = hot_doc()
        bt = self.rec(doc)["branch_sites"]["totals"]
        bt["predictions"] = 7
        bt["taken"] = 5
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("every event predicts exactly once",
                      result.stderr)

    def test_stalled_site_without_mispredict_is_flagged(self):
        doc = hot_doc()
        rec = self.rec(doc)
        # Move b1's mispredict into "rest" but leave its stall behind.
        rec["branch_sites"]["top"][0][3] = 0
        rec["branch_sites"]["rest"]["mispredicts"] = 1
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("mispredict stall 3 but no mispredict",
                      result.stderr)

    def test_phase_columns_must_reproduce_top_fetches(self):
        doc = hot_doc()
        self.rec(doc)["phase"]["matrix"] = [[2, 2], [0, 1]]
        result = run([self.write("HOT_bad.json", doc)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("phase column for block 0", result.stderr)

    def test_markdown_ranks_functions_by_score(self):
        path = self.write("HOT_unit.json", hot_doc())
        size = self.write("SIZE_unit.json", size_doc())
        out = os.path.join(self.dir.name, "hot.md")
        result = run([path, "--md", out, "--size", size])
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out) as f:
            text = f.read()
        self.assertIn("# Dynamic hotness: unit_bench", text)
        self.assertIn("## go", text)
        self.assertIn("keep uncompressed", text)
        self.assertIn("| b0 | 50.0% |", text)
        self.assertIn("size share | score |", text)
        # main: fetch share 5/6, size share 100/400 -> score 0.2083
        # beats kernel: 1/6 x 300/400 = 0.125.
        self.assertLess(text.index("| main |"),
                        text.index("| kernel |"))
        self.assertIn("0.2083", text)
        self.assertIn("Worst-predicted branch sites", text)

    def test_markdown_without_size_still_renders(self):
        path = self.write("HOT_unit.json", hot_doc())
        out = os.path.join(self.dir.name, "hot.md")
        result = run([path, "--md", out])
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(out) as f:
            text = f.read()
        self.assertIn("run with --size", text)
        self.assertNotIn("score |", text)

    def test_coverage_svg_is_well_formed(self):
        path = self.write("HOT_unit.json", hot_doc())
        svg = os.path.join(self.dir.name, "hot.svg")
        result = run([path, "--svg", svg])
        self.assertEqual(result.returncode, 0, result.stderr)
        dom = xml.dom.minidom.parse(svg)  # raises if malformed
        text = dom.toxml()
        self.assertIn("hot/cold coverage curves", text)
        self.assertIn("base", text)
        self.assertIn("compressed", text)
        polylines = dom.getElementsByTagName("polyline")
        self.assertEqual(len(polylines), 2)

    def test_compare_accepts_identical_structure(self):
        a = self.write("a.json", hot_doc())
        doc = hot_doc()
        doc["name"] = "other_run"  # outside "structure": exempt
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("identical structure", result.stdout)

    def test_compare_names_the_divergent_counter(self):
        a = self.write("a.json", hot_doc())
        doc = hot_doc()
        # A consistent-but-different record: one "rest" prediction
        # flips direction. Both files validate; only --compare tells.
        rec = self.rec(doc)
        rec["branch_sites"]["totals"]["taken"] = 5
        rec["branch_sites"]["totals"]["not_taken"] = 1
        rec["branch_sites"]["rest"]["taken"] = 1
        rec["branch_sites"]["rest"]["not_taken"] = 0
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)
        self.assertIn("structure.workloads.go.base.branch_sites",
                      result.stderr)
        self.assertIn("must be identical for any --jobs",
                      result.stderr)

    def test_compare_requires_valid_inputs(self):
        a = self.write("a.json", hot_doc())
        doc = hot_doc()
        self.rec(doc)["phase"]["rest"] = [1, 1]
        b = self.write("b.json", doc)
        result = run(["--compare", a, b])
        self.assertEqual(result.returncode, 1)

    def test_no_input_is_a_usage_error(self):
        result = run([])
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
