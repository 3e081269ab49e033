"""tepic-metrics-v1: metrics snapshots (BENCH_*.json and every
--metrics= output).

--compare covers the deterministic sections (counters, gauges,
histograms) — the --jobs determinism contract; the timings and
runtime sections are wall-clock/environment data and excluded.
"prof." gauges (host throughput) are compared by key set only: their
values are wall-clock rates, but which gauges a binary emits is part
of the contract. "cache.*_rate", "hot.*_rate" and "sweep.*_rate"
gauges (derived ratios) are masked the same way: their numerator and
denominator counters are already compared exactly.
"""

from tepic_reports import (check_hist, check_keys, check_nonneg_int,
                           hist_mass, invariant_error, usage_error)

SCHEMA = "tepic-metrics-v1"
DETERMINISTIC_SECTIONS = ("counters", "gauges", "histograms")
ALL_SECTIONS = DETERMINISTIC_SECTIONS + ("timings", "runtime")
TIMING_KEYS = ("count", "min", "max", "mean", "sum")


def validate(path, doc):
    for section in ALL_SECTIONS:
        if not isinstance(doc.get(section), dict):
            usage_error(f"{path}: missing section '{section}'")
    for name, value in doc["counters"].items():
        check_nonneg_int(path, f"counter '{name}'", value)
    for name, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            usage_error(f"{path}: gauge '{name}' is not a number")
    for name, hist in doc["histograms"].items():
        check_hist(path, f"histogram '{name}'", hist)
    for name, stat in doc["timings"].items():
        check_keys(path, f"timing '{name}'", stat, TIMING_KEYS)
    for name, hist in doc["histograms"].items():
        if hist_mass(hist) != hist["total"]:
            invariant_error(f"{path}: histogram '{name}' bins+overflow "
                            f"({hist_mass(hist)}) != total "
                            f"({hist['total']})")


def summary(doc):
    return (f"{len(doc['counters'])} counters, "
            f"{len(doc['gauges'])} gauges, "
            f"{len(doc['histograms'])} histograms, "
            f"{len(doc['timings'])} timings")


def masked_gauge(key):
    """Gauges whose values are compared as mere presence.

    prof.* gauges are host throughput rates (wall-clock data).
    cache.*_rate, hot.*_rate and sweep.*_rate gauges are derived
    ratios of exact counters (or, for the sweep, of wall time) — the
    counters themselves are compared exactly, so re-comparing the
    float quotient only adds a formatting-sensitive duplicate; like
    prof.*, their key set stays part of the contract.
    """
    if key.startswith("prof."):
        return True
    return key.endswith("_rate") and \
        (key.startswith("cache.") or key.startswith("hot.") or
         key.startswith("sweep."))


def comparable(doc):
    return {"counters": doc["counters"],
            "gauges": {k: (None if masked_gauge(k) else v)
                       for k, v in doc["gauges"].items()},
            "histograms": doc["histograms"]}
