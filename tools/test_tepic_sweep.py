#!/usr/bin/env python3
"""Tests for the tepic-sweep-v1 kind of tepic_reports.py.

The fixture is a hand-traced three-configuration sweep over one
workload (fir). Objective vectors (size_bits, ipc_e6,
decoder_transistors, bus_bit_flips):

  base        (32000, 800000,   0, 5000)   best decoder cost
  compressed  (20000, 727272, 400, 3000)   best size and bit flips
  tailored    (24000, 842105, 150, 4000)   best IPC

No vector dominates another (each holds at least one best axis), so
all three are Pareto-optimal; dominance order sorts by the oriented
tuple, putting compressed (smallest) first and base (largest) last.
The drift fixture degrades tailored to (24000, 666666, 500, 6000),
which compressed then dominates on every axis — the validator must
fail naming both keys.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS_DIR, "tepic_reports.py")

CFG_BASE = "base@S256xW2xL32/l0:0/atb:64/p:bimodal/pen:paper"
CFG_COMP = "compressed@S256xW2xL32/l0:32/atb:64/p:bimodal/pen:paper"
CFG_TAIL = "tailored@S256xW2xL32/l0:0/atb:64/p:bimodal/pen:paper"


def config(scheme, l0_ops):
    return {"scheme": scheme, "sets": 256, "ways": 2,
            "line_bytes": 32, "l0_ops": l0_ops, "atb_entries": 64,
            "predictor": "bimodal", "penalties": "paper"}


def point(scheme, l0_ops, size_bits, cycles, stall, decoder, bus,
          l1, cache3c, l0_saved=0):
    """stall = (mispredict, l1_refill, decode_stage, atb_miss)."""
    total = sum(stall)
    ops = 800
    return {
        "workload": "fir",
        "config": config(scheme, l0_ops),
        "metrics": {
            "size_bits": size_bits,
            "cycles": cycles,
            "ideal_cycles": cycles - total,
            "ops_delivered": ops,
            "blocks_fetched": 120,
            "ipc_e6": ops * 10**6 // cycles,
            "stall": {"total": total, "mispredict": stall[0],
                      "l1_refill": stall[1], "decode_stage": stall[2],
                      "atb_miss": stall[3], "l0_saved": l0_saved},
            "l1": {"hits": l1[0], "misses": l1[1]},
            "bus": {"bit_flips": bus[0], "beats": bus[1],
                    "bytes": bus[2]},
            "decoder_transistors": decoder,
            "cache3c": {"recorded": True, "compulsory": cache3c[0],
                        "capacity": cache3c[1],
                        "conflict": cache3c[2]},
        },
    }


def aggregate_of(point_record):
    m = point_record["metrics"]
    return {
        "config": dict(point_record["config"]),
        "workloads": 1,
        "metrics": {
            "size_bits": m["size_bits"],
            "cycles": m["cycles"],
            "ideal_cycles": m["ideal_cycles"],
            "ops_delivered": m["ops_delivered"],
            "stall_cycles": m["stall"]["total"],
            "ipc_e6": m["ops_delivered"] * 10**6 // m["cycles"],
            "decoder_transistors": m["decoder_transistors"],
            "bus_bit_flips": m["bus"]["bit_flips"],
        },
    }


def make_doc():
    points = {
        "fir/" + CFG_BASE: point(
            "base", 0, 32000, 1000, (60, 30, 0, 10), 0,
            (5000, 100, 800), (450, 50), (20, 20, 10)),
        "fir/" + CFG_COMP: point(
            "compressed", 32, 20000, 1100, (60, 40, 80, 20), 400,
            (3000, 60, 480), (460, 40), (15, 15, 10), l0_saved=12),
        "fir/" + CFG_TAIL: point(
            "tailored", 0, 24000, 950, (30, 15, 0, 5), 150,
            (4000, 80, 640), (470, 30), (10, 10, 10)),
    }
    aggregates = {cfg: aggregate_of(points["fir/" + cfg])
                  for cfg in (CFG_BASE, CFG_COMP, CFG_TAIL)}
    return {
        "schema": "tepic-sweep-v1",
        "name": "fixture",
        "structure": {
            "objectives": [
                {"name": "size_bits", "sense": "min"},
                {"name": "ipc_e6", "sense": "max"},
                {"name": "decoder_transistors", "sense": "min"},
                {"name": "bus_bit_flips", "sense": "min"},
            ],
            "grid": {
                "workloads": ["fir"],
                "schemes": ["base", "compressed", "tailored"],
                "sets": [256], "ways": [2], "line_bytes": [32],
                "l0_ops": [32], "atb_entries": [64],
                "predictors": ["bimodal"], "penalties": ["paper"],
            },
            "config_count": 3,
            "point_count": 3,
            "points": points,
            "aggregates": aggregates,
            # Dominance order: oriented tuples ascending (size first).
            "front": [CFG_COMP, CFG_TAIL, CFG_BASE],
        },
        "timing": {"jobs": 1, "wall_ms": 5, "points_per_sec": 600},
    }


def inject_dominated_tailored(doc):
    """Degrade tailored until compressed dominates it on every axis,
    while keeping every per-point/per-aggregate identity intact."""
    p = doc["structure"]["points"]["fir/" + CFG_TAIL]
    m = p["metrics"]
    m["cycles"] = 1200
    m["stall"] = {"total": 300, "mispredict": 200, "l1_refill": 80,
                  "decode_stage": 0, "atb_miss": 20, "l0_saved": 0}
    m["ideal_cycles"] = 900
    m["ipc_e6"] = 800 * 10**6 // 1200
    m["decoder_transistors"] = 500
    m["bus"]["bit_flips"] = 6000
    doc["structure"]["aggregates"][CFG_TAIL] = aggregate_of(p)
    # Re-sort: tailored's oriented tuple still sorts second (size 24000
    # between 20000 and 32000), so the front order is unchanged — the
    # only violation left is the dominated membership itself.
    return doc


class SweepToolTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, TOOL, *args],
            capture_output=True, text=True)

    def test_valid_report_passes(self):
        path = self.write("SWEEP_ok.json", make_doc())
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok", result.stdout)
        self.assertIn("front 3", result.stdout)

    def test_missing_front_is_schema_error(self):
        doc = make_doc()
        del doc["structure"]["front"]
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("front", result.stderr)

    def test_wrong_schema_string(self):
        doc = make_doc()
        doc["schema"] = "tepic-sweep-v0"
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 2, result.stderr)

    def test_wrong_objectives_are_schema_error(self):
        doc = make_doc()
        doc["structure"]["objectives"][1]["sense"] = "min"
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 2, result.stderr)

    def test_stall_tiling_violation(self):
        doc = make_doc()
        doc["structure"]["points"]["fir/" + CFG_BASE][
            "metrics"]["stall"]["mispredict"] += 1
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("stall", result.stderr)
        self.assertIn(CFG_BASE, result.stderr)

    def test_wrong_ipc_violation(self):
        doc = make_doc()
        doc["structure"]["points"]["fir/" + CFG_TAIL][
            "metrics"]["ipc_e6"] += 1
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("ipc_e6", result.stderr)

    def test_point_key_must_spell_config(self):
        doc = make_doc()
        points = doc["structure"]["points"]
        points["fir/" + CFG_BASE]["config"]["sets"] = 128
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("spell", result.stderr)

    def test_non_compressed_must_not_report_l0(self):
        doc = make_doc()
        doc["structure"]["points"]["fir/" + CFG_BASE][
            "metrics"]["stall"]["l0_saved"] = 7
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("L0", result.stderr)

    def test_3c_split_must_tile_misses(self):
        doc = make_doc()
        doc["structure"]["points"]["fir/" + CFG_COMP][
            "metrics"]["cache3c"]["conflict"] += 2
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("3C", result.stderr)

    def test_aggregate_sum_violation(self):
        doc = make_doc()
        doc["structure"]["aggregates"][CFG_COMP][
            "metrics"]["bus_bit_flips"] += 10
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("bus_bit_flips", result.stderr)
        self.assertIn("sum", result.stderr)

    def test_dominated_front_member_is_named(self):
        """The CI injected-drift check: a dominated point kept
        on the front must fail naming the point AND its dominator."""
        doc = inject_dominated_tailored(make_doc())
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("dominated", result.stderr)
        self.assertIn(CFG_TAIL, result.stderr)
        self.assertIn(CFG_COMP, result.stderr)

    def test_missing_nondominated_point_fails(self):
        doc = make_doc()
        doc["structure"]["front"] = [CFG_COMP, CFG_TAIL]
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("missing from the front", result.stderr)
        self.assertIn(CFG_BASE, result.stderr)

    def test_front_out_of_order_fails(self):
        doc = make_doc()
        doc["structure"]["front"] = [CFG_BASE, CFG_TAIL, CFG_COMP]
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("dominance order", result.stderr)

    def test_unknown_front_key_fails(self):
        doc = make_doc()
        doc["structure"]["front"].append("ghost@S1xW1xL1")
        result = self.run_tool(self.write("SWEEP_bad.json", doc))
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("unknown aggregate", result.stderr)

    def test_markdown_report(self):
        path = self.write("SWEEP_ok.json", make_doc())
        md = os.path.join(self.tmp.name, "sweep.md")
        result = self.run_tool(path, "--md", md)
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(md) as f:
            text = f.read()
        self.assertIn("Recommendation", text)
        # Tailored's IPC (842105) leads; compressed at 727272 misses
        # the 5% band, so the pick is tailored (smaller than base).
        self.assertIn(CFG_TAIL, text)
        self.assertIn("Pareto front", text)
        self.assertIn("Front attribution", text)

    def test_scatter_svg(self):
        path = self.write("SWEEP_ok.json", make_doc())
        svg = os.path.join(self.tmp.name, "sweep.svg")
        result = self.run_tool(path, "--svg", svg)
        self.assertEqual(result.returncode, 0, result.stderr)
        with open(svg) as f:
            text = f.read()
        self.assertIn("<svg", text)
        self.assertIn("size_bits vs ipc_e6", text)
        # 6 axis-pair panels for 4 objectives.
        self.assertEqual(text.count("<rect x="), 6)

    def test_compare_identical(self):
        a = self.write("SWEEP_a.json", make_doc())
        b = self.write("SWEEP_b.json", make_doc())
        result = self.run_tool("--compare", a, b)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("identical structure", result.stdout)

    def test_compare_divergent(self):
        doc_b = make_doc()
        # A consistent, fully-valid variation: base runs one cycle
        # longer (mispredict 61), so ipc_e6 recomputes to 799200.
        p = doc_b["structure"]["points"]["fir/" + CFG_BASE]
        m = p["metrics"]
        m["cycles"] = 1001
        m["stall"]["mispredict"] = 61
        m["stall"]["total"] = 101
        m["ipc_e6"] = 800 * 10**6 // 1001
        doc_b["structure"]["aggregates"][CFG_BASE] = aggregate_of(p)
        a = self.write("SWEEP_a.json", make_doc())
        b = self.write("SWEEP_b.json", doc_b)
        result = self.run_tool("--compare", a, b)
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("disagree", result.stderr)
        self.assertIn("cycles", result.stderr)

    def test_no_arguments_is_usage_error(self):
        result = self.run_tool()
        self.assertEqual(result.returncode, 2, result.stderr)


if __name__ == "__main__":
    unittest.main()
