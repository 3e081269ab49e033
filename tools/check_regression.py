#!/usr/bin/env python3
"""Compare fresh bench metrics against committed baselines.

Usage:
  check_regression.py --baseline-dir DIR --fresh-dir DIR
                      [--time-band FACTOR]
                      [--only NAME[,NAME...]] [--only NAME ...]

For every BENCH_*.json in the baseline directory, loads the file of
the same name from the fresh directory and compares:

  counters    exact (these are deterministic by the --jobs contract:
              any drift is a functional change, not noise)
  histograms  exact (same contract)
  gauges      equal within a tiny relative epsilon (1e-9), guarding
              only against cross-platform float formatting.
              Exception: "prof." gauges are host throughput
              (ops/sec on this machine) — key sets must still match,
              but values are gated with the --time-band ratio like
              timings (skipped when either side is 0, i.e. one run
              had no perf/cpu-time source)
  timings     key sets must match; with --time-band F, each fresh
              sum must be within [sum/F, sum*F] of the baseline
              (wall-clock noise band; omit to skip the ratio check)
  runtime     ignored (thread counts, host environment)

Exit codes: 0 = no drift, 1 = drift detected, 2 = usage/IO error.
Only the standard library is used.
"""

import argparse
import os
import sys

from tepic_reports import load, usage_error

DETERMINISTIC_EXACT = ("counters", "histograms")
GAUGE_EPSILON = 1e-9


def gauges_equal(a, b):
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= GAUGE_EPSILON * scale


def compare_file(name, baseline, fresh, time_band):
    """Returns a list of human-readable drift descriptions."""
    drifts = []

    for section in DETERMINISTIC_EXACT:
        base = baseline.get(section, {})
        new = fresh.get(section, {})
        for key in sorted(set(base) - set(new)):
            drifts.append(f"{name}: {section}['{key}'] missing from "
                          f"fresh run (baseline: {base[key]})")
        for key in sorted(set(new) - set(base)):
            drifts.append(f"{name}: {section}['{key}'] new in fresh "
                          f"run (not in baseline): {new[key]}")
        for key in sorted(set(base) & set(new)):
            if base[key] != new[key]:
                drifts.append(f"{name}: {section}['{key}'] drifted: "
                              f"baseline {base[key]} -> fresh "
                              f"{new[key]}")

    base_g = baseline.get("gauges", {})
    new_g = fresh.get("gauges", {})
    for key in sorted(set(base_g) ^ set(new_g)):
        where = "missing from fresh run" if key in base_g \
            else "new in fresh run"
        drifts.append(f"{name}: gauges['{key}'] {where}")
    for key in sorted(set(base_g) & set(new_g)):
        if key.startswith("prof."):
            # Host throughput: band-gated like wall-clock, and only
            # when both runs actually measured something.
            if time_band is None:
                continue
            base_v, new_v = base_g[key], new_g[key]
            if base_v <= 0.0 or new_v <= 0.0:
                continue
            ratio = new_v / base_v
            if ratio > time_band or ratio < 1.0 / time_band:
                drifts.append(
                    f"{name}: gauges['{key}'] outside the "
                    f"x{time_band:g} throughput band: baseline "
                    f"{base_v:g} -> fresh {new_v:g} (x{ratio:.2f})")
        elif not gauges_equal(base_g[key], new_g[key]):
            drifts.append(f"{name}: gauges['{key}'] drifted: "
                          f"baseline {base_g[key]} -> fresh "
                          f"{new_g[key]}")

    base_t = baseline.get("timings", {})
    new_t = fresh.get("timings", {})
    for key in sorted(set(base_t) ^ set(new_t)):
        where = "missing from fresh run" if key in base_t \
            else "new in fresh run"
        drifts.append(f"{name}: timings['{key}'] {where}")
    if time_band is not None:
        for key in sorted(set(base_t) & set(new_t)):
            base_sum = base_t[key].get("sum", 0.0)
            new_sum = new_t[key].get("sum", 0.0)
            if base_sum <= 0.0:
                continue
            ratio = new_sum / base_sum
            if ratio > time_band or ratio < 1.0 / time_band:
                drifts.append(
                    f"{name}: timings['{key}'].sum outside the "
                    f"x{time_band:g} noise band: baseline "
                    f"{base_sum:g} ms -> fresh {new_sum:g} ms "
                    f"(x{ratio:.2f})")
    return drifts


def main(argv):
    parser = argparse.ArgumentParser(
        prog="check_regression",
        description="Compare fresh bench metrics against baselines.")
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--fresh-dir", required=True)
    parser.add_argument("--time-band", type=float, default=None,
                        help="allowed wall-clock ratio (e.g. 100)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME[,NAME...]",
                        help="restrict to these BENCH file names; "
                             "comma-separated and/or repeated")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        sys.exit(2)
    if args.time_band is not None and args.time_band <= 1.0:
        usage_error("--time-band must be > 1")

    if not os.path.isdir(args.baseline_dir):
        usage_error(f"baseline dir '{args.baseline_dir}' not found")
    if not os.path.isdir(args.fresh_dir):
        usage_error(f"fresh dir '{args.fresh_dir}' not found")

    names = sorted(n for n in os.listdir(args.baseline_dir)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if args.only:
        wanted = {name for group in args.only
                  for name in group.split(",") if name}
        if not wanted:
            usage_error("--only given without any file name")
        names = [n for n in names if n in wanted]
        missing = wanted - set(names)
        if missing:
            usage_error(f"--only names not in baseline dir: "
                        f"{sorted(missing)}")
    if not names:
        usage_error(f"no BENCH_*.json baselines in "
                    f"'{args.baseline_dir}'")

    drifts = []
    for name in names:
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(fresh_path):
            drifts.append(f"{name}: no fresh run found at "
                          f"{fresh_path}")
            continue
        baseline = load(os.path.join(args.baseline_dir, name))
        fresh = load(fresh_path)
        file_drifts = compare_file(name, baseline, fresh,
                                   args.time_band)
        if not file_drifts:
            counters = len(baseline.get("counters", {}))
            print(f"check_regression: {name}: ok "
                  f"({counters} counters exact)")
        drifts.extend(file_drifts)

    if drifts:
        print(f"check_regression: {len(drifts)} drift(s) detected:",
              file=sys.stderr)
        for drift in drifts:
            print(f"  {drift}", file=sys.stderr)
        sys.exit(1)
    print(f"check_regression: all {len(names)} baseline(s) match")


if __name__ == "__main__":
    main(sys.argv[1:])
