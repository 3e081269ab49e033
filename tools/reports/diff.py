"""--diff OLD NEW: the regression gate and the size/metrics diff.

OLD and NEW are each a tepic-metrics-v1 snapshot (BENCH_*.json), a
tepic-size-v1 ledger (SIZE_*.json) or a directory of them. Two files
are paired with each other; otherwise every BENCH_/SIZE_ file on the
OLD side is paired with the NEW file of the same name. A file missing
on the NEW side is a drift, a file only on the NEW side is a note.

Every document is validated first (schema errors exit 2). Then:

  counters, histograms  exact
  gauges                within GAUGE_EPSILON relative (cross-platform
                        float formatting only)
  SIZE ledgers          every tree/by_function leaf and total_bits
                        exact

Every drift is one stderr line. The Markdown report ranks the changed
leaves by |delta| with the responsible scheme alongside ("what grew,
what shrank"); aggregate totals get their own table so the top row
is always the most specific leaf. Exit 0 = no drift, 1 = drift.
"""

import os
import sys

from reports import metrics, size
from tepic_reports import PROG, kind_of, load, usage_error, write_file

GAUGE_EPSILON = 1e-9
TOP = 20


# --- flattening ------------------------------------------------------
#
# Both kinds flatten to {key: number}, keyed so the scheme is always
# recoverable for the "responsible" column:
#   counter size.<scheme>.<leaf...>      (metrics snapshots)
#   size <workload>/<scheme>/tree/<leaf> (size ledgers)
#   size <workload>/<scheme>/func/<fn>/<block>


def flatten_tree(flat, prefix, node):
    for key, value in node.items():
        path = f"{prefix}/{key}"
        if isinstance(value, dict):
            flatten_tree(flat, path, value)
        else:
            flat[path] = value


def flatten_size(doc):
    flat = {}
    for workload, wdoc in sorted(doc["workloads"].items()):
        for scheme, sdoc in sorted(wdoc["schemes"].items()):
            prefix = f"size {workload}/{scheme}"
            flat[f"{prefix}/total_bits"] = sdoc["total_bits"]
            flatten_tree(flat, f"{prefix}/tree", sdoc["tree"])
            # by_function's root key is already "func".
            flatten_tree(flat, prefix, sdoc.get("by_function", {}))
    return flat


def flatten_metrics(doc):
    """Counters, gauges and histograms."""
    flat = {}
    for key, value in doc["counters"].items():
        flat[f"counter {key}"] = value
    for key, value in doc["gauges"].items():
        flat[f"gauge {key}"] = value
    for key, hist in doc["histograms"].items():
        flat[f"hist {key}.total"] = hist["total"]
        flat[f"hist {key}.overflow"] = hist["overflow"]
        for bin_value, count in hist["bins"]:
            flat[f"hist {key}.bin{bin_value}"] = count
    return flat


def is_total(key):
    return key.endswith("total_bits") or key.endswith(".total")


def responsible(key):
    """Scheme (and field/function detail) a flattened key charges."""
    if key.startswith("size "):
        # <workload>/<scheme>/...
        parts = key[len("size "):].split("/")
        return parts[1] if len(parts) >= 2 else parts[0]
    name = key.split(" ", 1)[1] if " " in key else key
    if name.startswith("size."):
        # size.<scheme>.<leaf...>; scheme names never contain '.'.
        parts = name.split(".")
        if len(parts) >= 2:
            return parts[1]
    return "-"


# --- diffing ---------------------------------------------------------


def diff_flat(old, new):
    """Returns (changed, added, removed); changed rows carry deltas."""
    changed = []
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if a == b:
            continue
        if isinstance(a, float) or isinstance(b, float):
            if abs(a - b) <= GAUGE_EPSILON * max(abs(a), abs(b)):
                continue
        changed.append((key, a, b, b - a))
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    return changed, added, removed


def fmt(value):
    return f"{value:g}" if isinstance(value, float) else str(value)


def fmt_delta(delta):
    return f"{'+' if delta > 0 else ''}{fmt(delta)}"


def render_ranked(lines, title, rows):
    if not rows:
        return
    lines += [f"### {title}", "",
              "| rank | delta | old | new | responsible | key |",
              "|---:|---:|---:|---:|---|---|"]
    for rank, (key, a, b, delta) in enumerate(rows[:TOP], 1):
        lines.append(f"| {rank} | {fmt_delta(delta)} | {fmt(a)} | "
                     f"{fmt(b)} | {responsible(key)} | `{key}` |")
    if len(rows) > TOP:
        lines.append(f"| | … | | | | {len(rows) - TOP} more row(s) "
                     f"omitted |")
    lines.append("")


def render_pair(name, changed, added, removed, old, new):
    """Markdown section for one document pair."""
    lines = [f"## {name}", ""]
    if not (changed or added or removed):
        return lines + ["No differences.", ""]

    totals = sorted(row for row in changed if is_total(row[0]))
    leaves = sorted((row for row in changed if not is_total(row[0])),
                    key=lambda row: (-abs(row[3]), row[0]))
    if totals:
        lines += ["### Scheme totals", "",
                  "| delta | old | new | responsible | key |",
                  "|---:|---:|---:|---|---|"]
        for key, a, b, delta in totals:
            lines.append(f"| {fmt_delta(delta)} | {fmt(a)} | {fmt(b)} "
                         f"| {responsible(key)} | `{key}` |")
        lines.append("")
    render_ranked(lines, "What grew", [r for r in leaves if r[3] > 0])
    render_ranked(lines, "What shrank", [r for r in leaves if r[3] < 0])

    for title, keys, source in (("Added keys", added, new),
                                ("Removed keys", removed, old)):
        if keys:
            lines += [f"### {title}", ""]
            lines += [f"- `{key}` = {fmt(source[key])}"
                      for key in keys[:TOP]]
            if len(keys) > TOP:
                lines.append(f"- … {len(keys) - TOP} more")
            lines.append("")
    return lines


# --- entry point -----------------------------------------------------


def snapshots(path):
    """{name: path} of the documents a --diff side stands for."""
    if os.path.isdir(path):
        return {n: os.path.join(path, n) for n in sorted(os.listdir(path))
                if n.startswith(("BENCH_", "SIZE_"))
                and n.endswith(".json")}
    if not os.path.exists(path):
        usage_error(f"'{path}' not found")
    return {os.path.basename(path): path}


def load_flat(path):
    """(document, flattened document) of a validated snapshot."""
    doc = load(path)
    kind = kind_of(path, doc)
    if kind not in (metrics, size):
        usage_error(f"{path}: --diff compares {metrics.SCHEMA} and "
                    f"{size.SCHEMA} documents, not {kind.SCHEMA}")
    kind.validate(path, doc)
    return doc, (flatten_size if kind is size else flatten_metrics)(doc)


def diff_pair(title, old_path, new_path):
    """(Markdown section, drift lines) for one document pair."""
    old, old_flat = load_flat(old_path)
    new, new_flat = load_flat(new_path)
    if old["schema"] != new["schema"]:
        usage_error(f"{old_path} is {old['schema']!r} but {new_path} "
                    f"is {new['schema']!r}")
    changed, added, removed = diff_flat(old_flat, new_flat)
    drifts = [f"{key} drifted: {a} -> {b}" for key, a, b, _ in changed]
    drifts += [f"{key} missing from OLD" for key in added]
    drifts += [f"{key} missing from NEW" for key in removed]
    lines = render_pair(title, changed, added, removed, old_flat,
                        new_flat)
    return lines, [f"{title}: {drift}" for drift in drifts]


def run(old_arg, new_arg, md):
    """The exit status: 0 = no drift, 1 = drift."""
    old_docs, new_docs = snapshots(old_arg), snapshots(new_arg)
    if not old_docs:
        usage_error(f"no BENCH_*.json or SIZE_*.json in '{old_arg}'")
    lines = [f"# {PROG} --diff: `{old_arg}` -> `{new_arg}`", ""]
    drifts = []
    if not (os.path.isdir(old_arg) or os.path.isdir(new_arg)):
        pairs = [(next(iter(old_docs)), next(iter(new_docs)))]
    else:
        pairs = []
        for name in sorted(set(old_docs) | set(new_docs)):
            if name not in new_docs:
                drifts.append(f"{name}: missing from {new_arg}")
                lines += [f"- `{name}` only in `{old_arg}` (drift)", ""]
            elif name not in old_docs:
                lines += [f"- `{name}` only in `{new_arg}` (skipped)",
                          ""]
            else:
                pairs.append((name, name))

    for old_name, new_name in pairs:
        title = old_name if old_name == new_name \
            else f"{old_name} -> {new_name}"
        section, pair_drifts = diff_pair(title, old_docs[old_name],
                                         new_docs[new_name])
        lines += section
        drifts += pair_drifts

    verdict = f"{len(drifts)} drift(s)" if drifts else "identical"
    lines.append(f"**Verdict:** {verdict} across {len(pairs)} "
                 f"snapshot pair(s).")
    report = "\n".join(lines) + "\n"
    if md:
        write_file(md, report)
        print(f"{PROG}: wrote {md}")
    else:
        sys.stdout.write(report)
    for drift in drifts:
        print(f"{PROG}: drift: {drift}", file=sys.stderr)
    return 1 if drifts else 0
