"""Tests of compare.py on hand-built result sets, and of the tepic-perf
binary: --list against BENCHMARK.json, and one traced run per workload
(those tests need TEPIC_PERF_BIN).

    python3 -m unittest -v test_perf      # from bench/perf
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

BENCHMARK = Path(os.environ.get("TEPIC_BENCHMARK_JSON",
                                HERE.parents[1] / "BENCHMARK.json"))

SPEC = {
    "workloads": [{"name": "w", "why": "fixture"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def record(wall, rate, seed=1, model=None, failed=0):
    return {"workload": "w", "seed": seed, "attempted": 10,
            "failed": failed, "model": model or {"ipc_e6": 1500000},
            "provenance": {"compiler": "c", "seed": seed}, "commit": "abc",
            "end_to_end": {"wall_s": {"value": wall, "unit": "s"},
                           "rate": {"value": rate, "unit": "1/s"}}}


def run_set(walls, rates=None, **kwargs):
    rates = rates or [100.0] * len(walls)
    return [record(w, r, seed=i, **kwargs)
            for i, (w, r) in enumerate(zip(walls, rates))]


def verdicts(text):
    return {line.split()[0]: line.split()[-1]
            for line in text.splitlines()[1:]
            if not line.strip().startswith("model")}


class CompareTest(unittest.TestCase):
    STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def run_compare(self, base, new, pairs=False):
        out = io.StringIO()
        ok = compare.compare(base, new, SPEC, pairs=pairs, out=out)
        return ok, out.getvalue()

    def test_same_numbers_are_within_bound(self):
        ok, text = self.run_compare(run_set(self.STEADY),
                                    run_set(self.STEADY))
        self.assertTrue(ok)
        self.assertEqual(verdicts(text),
                         {"wall_s": "within", "rate": "within"})
        self.assertIn("model identical, failed ops 0", text)

    def test_slower_beyond_bound_is_worse(self):
        slower = [v * 1.2 for v in self.STEADY]
        ok, text = self.run_compare(run_set(self.STEADY), run_set(slower))
        self.assertFalse(ok)
        self.assertEqual(verdicts(text)["wall_s"], "worse")

    def test_lower_rate_is_worse_when_higher_is_better(self):
        rates = [100.0 * v for v in self.STEADY]
        ok, text = self.run_compare(
            run_set(self.STEADY, rates),
            run_set(self.STEADY, [r * 0.8 for r in rates]))
        self.assertFalse(ok)
        self.assertEqual(verdicts(text)["rate"], "worse")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
        ok, text = self.run_compare(run_set(noisy), run_set(noisy))
        self.assertTrue(ok)
        self.assertEqual(verdicts(text)["wall_s"], "unresolved")

    def test_wide_spread_resolves_when_every_new_run_is_better(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
        ok, text = self.run_compare(run_set(noisy), run_set([0.5] * 10))
        self.assertTrue(ok)
        self.assertEqual(verdicts(text)["wall_s"], "within")

    def test_setup_change_under_the_absolute_floor_is_within(self):
        metric = {"name": "setup_s", "unit": "s", "better": "lower",
                  "bound": 0.1}
        base = [0.0025 * v for v in self.STEADY]
        self.assertEqual(
            compare.verdict(base, [2 * v for v in base], metric)[0],
            "within")
        self.assertEqual(
            compare.verdict([0.8] * 10, [1.0] * 10, metric)[0], "worse")

    def test_changed_model_or_failed_ops_fail(self):
        changed = run_set(self.STEADY, model={"ipc_e6": 1})
        ok, text = self.run_compare(run_set(self.STEADY), changed)
        self.assertFalse(ok)
        self.assertIn("model CHANGED", text)
        ok, text = self.run_compare(run_set(self.STEADY),
                                    run_set(self.STEADY, failed=1))
        self.assertFalse(ok)
        self.assertIn("failed ops 10", text)

    def test_pairs_need_nine_of_ten_wins(self):
        base = run_set(self.STEADY)
        faster = [v * 0.9 for v in self.STEADY]
        ok, text = self.run_compare(base, run_set(faster), pairs=True)
        self.assertIn("wins 10/10", text)
        self.assertEqual(verdicts(text)["wall_s"], "gain")
        two_losses = faster[:8] + [2.0, 2.0]
        ok, text = self.run_compare(base, run_set(two_losses), pairs=True)
        self.assertIn("wins 8/10", text)
        self.assertEqual(verdicts(text)["wall_s"], "no-gain")

    def test_pairs_need_medians_apart_by_more_than_spread(self):
        base = run_set(self.STEADY)
        barely = [v - 0.001 for v in self.STEADY]
        ok, text = self.run_compare(base, run_set(barely), pairs=True)
        self.assertIn("wins 10/10", text)
        self.assertEqual(verdicts(text)["wall_s"], "no-gain")

    def test_summarize_gives_medians_and_quartiles(self):
        lines = compare.summarize(run_set(self.STEADY), "fixture")
        self.assertEqual(len(lines), 1)
        wall = lines[0]["metrics"]["wall_s"]
        self.assertEqual(wall["median"], 1.0)
        self.assertLess(wall["q1"], wall["median"])
        self.assertEqual(lines[0]["runs"], 10)
        self.assertNotIn("seed", lines[0]["provenance"])

    def test_command_line_reads_files_and_bounds(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, walls in (("base", self.STEADY),
                                ("new", [v * 1.5 for v in self.STEADY])):
                path = Path(tmp) / f"{name}.jsonl"
                path.write_text("".join(json.dumps(r) + "\n"
                                        for r in run_set(walls)))
                paths.append(str(path))
            spec = Path(tmp) / "BENCHMARK.json"
            spec.write_text(json.dumps(SPEC))
            with open(os.devnull, "w") as devnull:
                stdout, sys.stdout = sys.stdout, devnull
                try:
                    status = compare.main(paths + ["--benchmark", str(spec)])
                finally:
                    sys.stdout = stdout
            self.assertEqual(status, 1)


@unittest.skipUnless(os.environ.get("TEPIC_PERF_BIN"),
                     "set TEPIC_PERF_BIN to the tepic-perf binary")
class BinaryTest(unittest.TestCase):
    # Per-layer metrics each workload's iterations must make non-zero.
    WORKED = {
        "suite-build": ("sim.emulate_trace_s", "schemes.huffman_s",
                        "fetch.att_build_s", "schemes.ops_encoded"),
        "fetch-paper": ("fetch.simulate_s", "codec.block_cache_hits"),
        "fetch-recorded": ("fetch.simulate_s", "fetch.write_reports_s"),
        "sweep-ci": ("core.sweep_point_s", "core.sweep_points"),
    }

    def test_traced_runs_attribute_their_time(self):
        spec = json.loads(BENCHMARK.read_text())
        names = [m["name"] for m in spec["per_layer"]]
        with tempfile.TemporaryDirectory() as tmp:
            for workload, worked in self.WORKED.items():
                with self.subTest(workload=workload):
                    trace = Path(tmp) / f"{workload}.json"
                    proc = subprocess.run(
                        [os.environ["TEPIC_PERF_BIN"],
                         f"--workload={workload}", "--seconds=0",
                         f"--expected={HERE / 'expected.json'}",
                         f"--traced={trace}", f"--tmp-dir={tmp}"],
                        capture_output=True, text=True)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(result["failed"], 0)
                    layers = {name: m["value"]
                              for name, m in result["per_layer"].items()}
                    self.assertEqual(list(layers), names)
                    self.assertGreaterEqual(
                        layers["bench.attributed_frac"], 0.95)
                    for name in worked:
                        self.assertGreater(layers[name], 0, name)
                    events = json.loads(trace.read_text())["traceEvents"]
                    self.assertIn("bench.iteration",
                                  {e["name"] for e in events})

    def test_list_matches_benchmark_json(self):
        listed = json.loads(subprocess.run(
            [os.environ["TEPIC_PERF_BIN"], "--list"], check=True,
            capture_output=True, text=True).stdout)
        spec = json.loads(BENCHMARK.read_text())
        self.assertEqual(listed["workloads"], spec["workloads"])
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                listed[kind],
                [{k: m[k] for k in ("name", "unit", "better")}
                 for m in spec[kind]], kind)


if __name__ == "__main__":
    unittest.main()
