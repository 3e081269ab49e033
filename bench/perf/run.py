#!/usr/bin/env python3
"""Build tepic-perf from this checkout and run one benchmark workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--out RESULTS.jsonl]

The build goes to $CARGO_TARGET_DIR/tepic-perf (default .bench_build/
tepic-perf under the checkout root) and is incremental, so only the first
run in a checkout pays for it.  Build and progress logs go to stderr; the
last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace is 0 and every
per-layer metric when it is 1.  --out appends the full record (model
values, samples, provenance, commit) as one JSON line, the input of
compare.py.  Exit status: 0 when every operation passed its checks, 1 when
some failed (the result is still printed), 2 when no result could be
produced.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_LIMIT_S = 180       # a run must end within this
FIRST_RUN_LIMIT_S = 900  # ... or this when it also builds


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def fail(message):
    log(message)
    sys.exit(2)


def git_commit():
    """HEAD's commit from .git, read directly so nothing outside the
    checkout is consulted; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "tepic-perf"


def build(out_dir, deadline):
    """Configure (once per checkout) and build tepic-perf; True when
    anything had to be configured."""
    cache = out_dir / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text().splitlines():
            shutil.rmtree(out_dir)  # configured from another checkout
    configured = not cache.is_file()
    steps = []
    if configured:
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "-j4",
                  "--target", "tepic-perf"])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    return configured


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the full record to this JSONL file")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no src/ tree to build")
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    out_dir = build_dir()
    try:
        built = build(out_dir, start + FIRST_RUN_LIMIT_S - 60)
    except (subprocess.SubprocessError, OSError) as error:
        fail(f"build failed: {error}")
    limit = FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S

    tmp_dir = out_dir / "tmp"
    command = [str(out_dir / "tepic-perf"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}",
               f"--expected={HERE / 'expected.json'}",
               f"--tmp-dir={tmp_dir}"]
    trace_file = None
    if args.trace:
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        command.append(f"--traced={trace_file}")
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, start + limit - 5 - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"tepic-perf did not finish within {limit} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"tepic-perf exited with status {proc.returncode}")
    record = json.loads(lines[-1])

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = record[kind]
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        fail(f"tepic-perf's {kind} metrics do not match BENCHMARK.json")

    record["commit"] = git_commit()
    record["trace_file"] = str(trace_file) if trace_file else None
    print(json.dumps({"model": record["model"],
                      "provenance": record["provenance"],
                      "commit": record["commit"],
                      "failures": record["failures"]}))
    if args.out:
        with args.out.open("a") as out:
            out.write(json.dumps(record) + "\n")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
