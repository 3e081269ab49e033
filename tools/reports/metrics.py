"""tepic-metrics-v1: metrics snapshots (BENCH_*.json and every
--metrics= output).

All three sections (counters, gauges, histograms) are deterministic:
--compare checks them for the --jobs determinism contract. The
"cache.*_rate" and "hot.*_rate" gauges (derived ratios) are compared
by key set only: their numerator and denominator counters are already
compared exactly.
"""

from tepic_reports import (check_hist, check_nonneg_int, hist_mass,
                           invariant_error, usage_error)

SCHEMA = "tepic-metrics-v1"
SECTIONS = ("counters", "gauges", "histograms")


def validate(path, doc):
    for section in SECTIONS:
        if not isinstance(doc.get(section), dict):
            usage_error(f"{path}: missing section '{section}'")
    for name, value in doc["counters"].items():
        check_nonneg_int(path, f"counter '{name}'", value)
    for name, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            usage_error(f"{path}: gauge '{name}' is not a number")
    for name, hist in doc["histograms"].items():
        check_hist(path, f"histogram '{name}'", hist)
    for name, hist in doc["histograms"].items():
        if hist_mass(hist) != hist["total"]:
            invariant_error(f"{path}: histogram '{name}' bins+overflow "
                            f"({hist_mass(hist)}) != total "
                            f"({hist['total']})")


def summary(doc):
    return (f"{len(doc['counters'])} counters, "
            f"{len(doc['gauges'])} gauges, "
            f"{len(doc['histograms'])} histograms")


def masked_gauge(key):
    """Gauges whose values are compared as mere presence.

    cache.*_rate and hot.*_rate gauges are derived ratios of exact
    counters — the counters themselves are compared exactly, so
    re-comparing the float quotient only adds a formatting-sensitive
    duplicate; their key set stays part of the contract.
    """
    return key.endswith("_rate") and key.startswith(("cache.", "hot."))


def comparable(doc):
    return {"counters": doc["counters"],
            "gauges": {k: (None if masked_gauge(k) else v)
                       for k, v in doc["gauges"].items()},
            "histograms": doc["histograms"]}
