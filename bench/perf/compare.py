#!/usr/bin/env python3
"""Compare two sets of tepic-perf results against BENCHMARK.json's bounds.

    compare.py BASE.jsonl NEW.jsonl [--pairs] [--benchmark BENCHMARK.json]
    compare.py --summarize RUNS.jsonl --label LABEL

A result file holds one JSON record per line, as `run.py --out` appends
them.  For every workload and end-to-end metric the default mode prints
each side's median and quartiles and a verdict:

  within       the new median is no worse than the base median by more
               than the metric's bound, or by no more than 0.05 s for
               setup_s;
  worse        it is worse by more than the bound;
  unresolved   the run-to-run spread (quartile distance over median, the
               wider side) exceeds the bound, unless every new run reads
               better than every base run.

The model values (paper-figure numbers) must be identical across every
record of a workload, and no operation may have failed.  --pairs pairs
the i-th base and new records of a workload (run them alternately) and
claims a gain only when the new side wins at least 9 of 10 pairs, ties
counting for neither, and the medians differ by more than the base
quartile distance.  --summarize prints one ledger line per workload for
ledger.jsonl.  Exit status 1 when a metric is worse, a model value
changed or an operation failed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# A change of a median by no more than this, in the metric's unit, is
# within bound whatever its share: suite-build's set-up takes a few
# milliseconds, where a share measures noise.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def load(path):
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def by_workload(records):
    groups = defaultdict(list)
    for record in records:
        groups[record["workload"]].append(record)
    return groups


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def values_of(records, metric):
    return [r["end_to_end"][metric]["value"] for r in records]


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, new, metric):
    """The default-mode verdict for one metric's two samples."""
    bound, direction = metric["bound"], metric["better"]
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    worse_by = change if direction == "lower" else -change
    floor = ABSOLUTE_FLOOR.get(metric["name"])
    if floor is not None and abs(n_med - b_med) <= floor:
        return "within", change
    all_better = all(better(n, b, direction) for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", change
    return ("worse" if worse_by > bound else "within"), change


def pair_verdict(base, new, metric):
    """(wins, pairs, verdict) under the 9-of-10 pair rule."""
    direction = metric["better"]
    pairs = list(zip(base, new))
    wins = sum(better(n, b, direction) for b, n in pairs)
    q1, b_med, q3 = quartiles(base)
    n_med = quartiles(new)[1]
    gain = (pairs and wins >= 0.9 * len(pairs)
            and abs(n_med - b_med) > q3 - q1)
    return wins, len(pairs), "gain" if gain else "no-gain"


def compare(base_records, new_records, spec, pairs=False, out=None):
    """Print the comparison; return True when nothing regressed."""
    out = out or sys.stdout
    ok = True
    base_groups = by_workload(base_records)
    new_groups = by_workload(new_records)
    for workload in [w["name"] for w in spec["workloads"]]:
        base, new = base_groups.get(workload), new_groups.get(workload)
        if not base or not new:
            continue
        print(f"{workload}: {len(base)} base runs, {len(new)} new runs",
              file=out)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = values_of(base, name), values_of(new, name)
            bq, nq = quartiles(b), quartiles(n)
            if pairs:
                wins, count, result = pair_verdict(b, n, metric)
                detail = f"wins {wins}/{count}"
            else:
                result, change = verdict(b, n, metric)
                detail = (f"change {change:+.2%}  spread "
                          f"{max(spread(b), spread(n)):.2%}  "
                          f"bound {metric['bound']:.0%}")
                ok &= result != "worse"
            print(f"  {name:16} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
                  f"  {detail}  {result}", file=out)
        models = {json.dumps(r["model"], sort_keys=True) for r in base + new}
        failed = sum(r["failed"] for r in base + new)
        print(f"  model {'identical' if len(models) == 1 else 'CHANGED'}"
              f", failed ops {failed}", file=out)
        ok &= len(models) == 1 and failed == 0
    return ok


def summarize(records, label):
    """One ledger line per workload: medians and quartiles by metric."""
    lines = []
    for workload, runs in by_workload(records).items():
        metrics = {}
        for name, first in runs[0]["end_to_end"].items():
            q1, median, q3 = quartiles(values_of(runs, name))
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "unit": first["unit"]}
        provenance = dict(runs[0]["provenance"])
        provenance.pop("seed", None)
        lines.append({
            "label": label,
            "commit": runs[0].get("commit", "unknown"),
            "workload": workload,
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "model": runs[0]["model"],
            "provenance": provenance,
        })
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--pairs", action="store_true")
    parser.add_argument("--summarize", action="store_true")
    parser.add_argument("--label", default="")
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK)
    args = parser.parse_args(argv)
    if args.summarize:
        for path in args.files:
            for line in summarize(load(path), args.label):
                print(json.dumps(line))
        return 0
    if len(args.files) != 2:
        parser.error("give a base and a new result file")
    spec = json.loads(args.benchmark.read_text())
    ok = compare(load(args.files[0]), load(args.files[1]), spec, args.pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
