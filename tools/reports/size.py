"""tepic-size-v1: size-provenance reports (the SIZE_*.json files every
bench and `tepicc --report-dir=` write).

Validation re-derives the ledger's tiling promise: per workload and
scheme, the leaves of "tree" sum to total_bits exactly, and so do the
leaves of the optional per-function "by_function" rollup.

--compare covers "workloads": a size report is a pure function of the
built artifacts and must not depend on --jobs.
"""

from tepic_reports import (check_keys, check_nonneg_int,
                           invariant_error, usage_error)

SCHEMA = "tepic-size-v1"


def tree_bits(path, what, node):
    """Sum of a ledger tree's leaves; exit 2 on a malformed node."""
    if isinstance(node, dict):
        return sum(tree_bits(path, f"{what}.{key}", child)
                   for key, child in node.items())
    check_nonneg_int(path, what, node)
    return node


def validate(path, doc):
    check_keys(path, "document", doc, ("name", "workloads"))
    if not isinstance(doc["workloads"], dict):
        usage_error(f"{path}: 'workloads' is not an object")
    for wl, rec in doc["workloads"].items():
        check_keys(path, f"workload '{wl}'", rec, ("schemes",))
        if not isinstance(rec["schemes"], dict):
            usage_error(f"{path}: {wl}.schemes is not an object")
        for scheme, size in rec["schemes"].items():
            where = f"{wl}.{scheme}"
            check_keys(path, where, size, ("total_bits", "tree"))
            check_nonneg_int(path, f"{where}.total_bits",
                             size["total_bits"])
            for view in ("tree", "by_function"):
                if view not in size:
                    continue
                bits = tree_bits(path, f"{where}.{view}", size[view])
                if bits != size["total_bits"]:
                    invariant_error(
                        f"{path}: {where}.{view} leaves sum to {bits}, "
                        f"not total_bits ({size['total_bits']})")


def summary(doc):
    schemes = sum(len(rec["schemes"])
                  for rec in doc["workloads"].values())
    return (f"{len(doc['workloads'])} workloads, "
            f"{schemes} scheme ledgers")


def comparable(doc):
    return {"workloads": doc["workloads"]}
