"""tepic-cache-v1: cache-behavior reports (the CACHE_*.json files
every bench binary and `tepicc --cache-report=` emit).

Validation re-derives the tiling invariants the C++ recorder asserts:

  * the 3C classes tile L1 misses exactly
    (misses == compulsory + capacity + conflict),
  * accesses == hits + misses, fetches == accesses + l0_bypasses, and
    every fetch makes exactly one ATB access,
  * fills - evictions == resident lines, dead-on-fill is a subset of
    evictions, and the eviction-use histogram samples each eviction
    exactly once,
  * the reuse histogram plus the cold count tiles the sampled stream,
  * per set, line accesses tile into hits + fills, and the per-set
    vectors sum to the line totals,
  * every heatmap is an epochs x sets matrix whose column sums
    reproduce the per-set vectors.

--compare covers the "structure" section: every recorded counter is a
pure function of (trace, config) and must not depend on --jobs.
Renders a Markdown "where did compression buy capacity?" report and
an SVG per-set access heatmap.
"""

from tepic_reports import (check_hist, check_keys, check_nonneg_int,
                           fmt_pct, hist_mass, invariant_error,
                           svg_escape, usage_error)

SCHEMA = "tepic-cache-v1"

SCHEME_KEYS = ("config", "blocks", "atb", "l1", "lines", "reuse",
               "sets", "heatmap")
CONFIG_KEYS = ("sets", "ways", "line_bytes", "heatmap_epochs")
L1_KEYS = ("accesses", "hits", "misses", "miss_classes")
CLASS_KEYS = ("compulsory", "capacity", "conflict")
LINE_KEYS = ("fills", "evictions", "dead_on_fill", "resident_at_end",
             "eviction_use_hist")
REUSE_KEYS = ("samples", "cold", "max", "log2_hist")
SET_KEYS = ("accesses", "hits", "fills", "evictions", "dead_on_fill")
HEAT_KEYS = ("epochs", "accesses", "fills", "evictions")

# Blue ramp for the heatmap cells (light -> dark with load).
HEAT_LOW = (247, 251, 255)
HEAT_HIGH = (8, 48, 107)


# --- validation ------------------------------------------------------


def check_schema(path, doc):
    """Shape checks (exit 2 on failure); returns the workloads map."""
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        usage_error(f"{path}: missing report 'name'")
    check_keys(path, "report", doc, ("structure",))
    check_keys(path, "structure", doc["structure"], ("workloads",))
    workloads = doc["structure"]["workloads"]
    if not isinstance(workloads, dict):
        usage_error(f"{path}: structure['workloads'] is not an object")
    for wl, schemes in workloads.items():
        if not isinstance(schemes, dict):
            usage_error(f"{path}: workload '{wl}' is not an object")
        for scheme, rec in schemes.items():
            what = f"'{wl}'/'{scheme}'"
            check_keys(path, what, rec, SCHEME_KEYS)
            check_keys(path, f"{what} config", rec["config"],
                       CONFIG_KEYS)
            for key in CONFIG_KEYS:
                check_nonneg_int(path, f"{what} config['{key}']",
                                 rec["config"][key])
                if rec["config"][key] == 0:
                    usage_error(f"{path}: {what} config['{key}'] "
                                f"is zero")
            check_keys(path, f"{what} blocks", rec["blocks"],
                       ("fetches", "l0_bypasses"))
            check_keys(path, f"{what} atb", rec["atb"],
                       ("hits", "misses"))
            check_keys(path, f"{what} l1", rec["l1"], L1_KEYS)
            check_keys(path, f"{what} l1 miss_classes",
                       rec["l1"]["miss_classes"], CLASS_KEYS)
            check_keys(path, f"{what} lines", rec["lines"], LINE_KEYS)
            check_hist(path, f"{what} eviction_use_hist",
                       rec["lines"]["eviction_use_hist"])
            check_keys(path, f"{what} reuse", rec["reuse"], REUSE_KEYS)
            check_hist(path, f"{what} log2_hist",
                       rec["reuse"]["log2_hist"])
            check_keys(path, f"{what} sets", rec["sets"], SET_KEYS)
            sets = rec["config"]["sets"]
            for key in SET_KEYS:
                vec = rec["sets"][key]
                if not isinstance(vec, list) or len(vec) != sets:
                    usage_error(f"{path}: {what} sets['{key}'] is "
                                f"not a {sets}-element array")
            check_keys(path, f"{what} heatmap", rec["heatmap"],
                       HEAT_KEYS)
            epochs = rec["config"]["heatmap_epochs"]
            if rec["heatmap"]["epochs"] != epochs:
                usage_error(f"{path}: {what} heatmap epochs "
                            f"{rec['heatmap']['epochs']} != config "
                            f"heatmap_epochs {epochs}")
            for key in ("accesses", "fills", "evictions"):
                rows = rec["heatmap"][key]
                if not isinstance(rows, list) or len(rows) != epochs:
                    usage_error(f"{path}: {what} heatmap['{key}'] is "
                                f"not a {epochs}-row matrix")
                for e, row in enumerate(rows):
                    if not isinstance(row, list) or len(row) != sets:
                        usage_error(
                            f"{path}: {what} heatmap['{key}'][{e}] "
                            f"is not a {sets}-element row")
    return workloads


def check_invariants(path, workloads):
    """Semantic checks (exit 1 on failure) — the schema's promises.

    Every message names the counter that broke so CI failures read as
    "which number drifted", not just "something differs".
    """
    for wl, schemes in sorted(workloads.items()):
        for scheme, rec in sorted(schemes.items()):
            where = f"{path}: {wl}/{scheme}"
            l1 = rec["l1"]
            classes = l1["miss_classes"]
            class_sum = sum(classes[k] for k in CLASS_KEYS)
            if l1["misses"] != class_sum:
                invariant_error(
                    f"{where}: l1.misses = {l1['misses']} but the 3C "
                    f"classes sum to {class_sum} (compulsory "
                    f"{classes['compulsory']} + capacity "
                    f"{classes['capacity']} + conflict "
                    f"{classes['conflict']})")
            if l1["accesses"] != l1["hits"] + l1["misses"]:
                invariant_error(
                    f"{where}: l1.accesses = {l1['accesses']} != "
                    f"l1.hits + l1.misses = "
                    f"{l1['hits'] + l1['misses']}")
            blocks = rec["blocks"]
            if blocks["fetches"] != l1["accesses"] + \
                    blocks["l0_bypasses"]:
                invariant_error(
                    f"{where}: blocks.fetches = {blocks['fetches']} "
                    f"!= l1.accesses + blocks.l0_bypasses = "
                    f"{l1['accesses'] + blocks['l0_bypasses']}")
            atb = rec["atb"]
            if atb["hits"] + atb["misses"] != blocks["fetches"]:
                invariant_error(
                    f"{where}: atb.hits + atb.misses = "
                    f"{atb['hits'] + atb['misses']} != blocks.fetches "
                    f"= {blocks['fetches']}")
            lines = rec["lines"]
            if lines["fills"] - lines["evictions"] != \
                    lines["resident_at_end"]:
                invariant_error(
                    f"{where}: lines.resident_at_end = "
                    f"{lines['resident_at_end']} != lines.fills - "
                    f"lines.evictions = "
                    f"{lines['fills'] - lines['evictions']}")
            if lines["dead_on_fill"] > lines["evictions"]:
                invariant_error(
                    f"{where}: lines.dead_on_fill = "
                    f"{lines['dead_on_fill']} > lines.evictions = "
                    f"{lines['evictions']}")
            use_hist = lines["eviction_use_hist"]
            if use_hist["total"] != lines["evictions"]:
                invariant_error(
                    f"{where}: eviction_use_hist.total = "
                    f"{use_hist['total']} != lines.evictions = "
                    f"{lines['evictions']}")
            if hist_mass(use_hist) != use_hist["total"]:
                invariant_error(
                    f"{where}: eviction_use_hist bins + overflow = "
                    f"{hist_mass(use_hist)} != its total = "
                    f"{use_hist['total']}")
            reuse = rec["reuse"]
            warm = reuse["log2_hist"]
            if reuse["samples"] != reuse["cold"] + warm["total"]:
                invariant_error(
                    f"{where}: reuse.samples = {reuse['samples']} != "
                    f"reuse.cold + log2_hist.total = "
                    f"{reuse['cold'] + warm['total']}")
            if hist_mass(warm) != warm["total"]:
                invariant_error(
                    f"{where}: reuse.log2_hist bins + overflow = "
                    f"{hist_mass(warm)} != its total = "
                    f"{warm['total']}")

            vecs = rec["sets"]
            for s in range(rec["config"]["sets"]):
                if vecs["accesses"][s] != vecs["hits"][s] + \
                        vecs["fills"][s]:
                    invariant_error(
                        f"{where}: sets.accesses[{s}] = "
                        f"{vecs['accesses'][s]} != sets.hits[{s}] + "
                        f"sets.fills[{s}] = "
                        f"{vecs['hits'][s] + vecs['fills'][s]}")
            if sum(vecs["fills"]) != lines["fills"]:
                invariant_error(
                    f"{where}: sum(sets.fills) = "
                    f"{sum(vecs['fills'])} != lines.fills = "
                    f"{lines['fills']}")
            if sum(vecs["evictions"]) != lines["evictions"]:
                invariant_error(
                    f"{where}: sum(sets.evictions) = "
                    f"{sum(vecs['evictions'])} != lines.evictions = "
                    f"{lines['evictions']}")
            if sum(vecs["dead_on_fill"]) != lines["dead_on_fill"]:
                invariant_error(
                    f"{where}: sum(sets.dead_on_fill) = "
                    f"{sum(vecs['dead_on_fill'])} != "
                    f"lines.dead_on_fill = {lines['dead_on_fill']}")

            for key in ("accesses", "fills", "evictions"):
                rows = rec["heatmap"][key]
                for s in range(rec["config"]["sets"]):
                    col = sum(row[s] for row in rows)
                    if col != vecs[key][s]:
                        invariant_error(
                            f"{where}: heatmap.{key} column {s} sums "
                            f"to {col} != sets.{key}[{s}] = "
                            f"{vecs[key][s]}")


def validate(path, doc):
    check_invariants(path, check_schema(path, doc))


def summary(doc):
    workloads = doc["structure"]["workloads"]
    records = sum(len(s) for s in workloads.values())
    misses = sum(rec["l1"]["misses"]
                 for schemes in workloads.values()
                 for rec in schemes.values())
    conflict = sum(rec["l1"]["miss_classes"]["conflict"]
                   for schemes in workloads.values()
                   for rec in schemes.values())
    return (f"{len(workloads)} workloads, {records} records; "
            f"{misses} L1 misses tiled into 3C classes, {conflict} "
            f"conflict")


def comparable(doc):
    return {"structure": doc["structure"]}


# --- Markdown "where did compression buy capacity?" report -----------


def fmt_delta(new, old):
    d = new - old
    return f"{d:+d}"


def reuse_cdf_at(rec, log2_key):
    """Fraction of warm reuses with distance < 2^log2_key lines."""
    hist = rec["reuse"]["log2_hist"]
    if hist["total"] == 0:
        return 0.0
    mass = sum(w for k, w in hist["bins"] if k <= log2_key)
    return mass / hist["total"]


def capacity_log2(rec):
    """log2 bin that covers the cache's line capacity."""
    lines = rec["config"]["sets"] * rec["config"]["ways"]
    return max(1, lines.bit_length())


def render_md(path, doc):
    workloads = doc["structure"]["workloads"]
    lines = [f"# Cache behavior: {doc['name']}", ""]
    lines.append(
        "Where did compression buy capacity? For each workload, the "
        "L1 miss column of every fetch organisation is split into "
        "the classic 3C classes: **compulsory** (first touch — no "
        "cache holds it), **capacity** (a fully-associative cache of "
        "the same size misses it too) and **conflict** (only the "
        "set mapping loses it). A compressed image packs more blocks "
        "per line, so capacity misses are where its wins show up; "
        "the reuse-distance CDF shift says the same thing from the "
        "access stream's side.")
    lines.append("")

    for wl, schemes in sorted(workloads.items()):
        lines.append(f"## {wl}")
        lines.append("")
        lines.append("| scheme | geometry | L1 accesses | miss rate "
                     "| compulsory | capacity | conflict "
                     "| dead-on-fill | reuse fits cache |")
        lines.append("|---|---|---:|---:|---:|---:|---:|---:|---:|")
        base = schemes.get("base")
        for scheme, rec in sorted(schemes.items()):
            cfg = rec["config"]
            l1 = rec["l1"]
            cls = l1["miss_classes"]
            ln = rec["lines"]
            geometry = (f"{cfg['sets']}x{cfg['ways']}x"
                        f"{cfg['line_bytes']}B")
            fits = reuse_cdf_at(rec, capacity_log2(rec))
            lines.append(
                f"| {scheme} | {geometry} | {l1['accesses']} "
                f"| {fmt_pct(l1['misses'], l1['accesses'])} "
                f"| {cls['compulsory']} | {cls['capacity']} "
                f"| {cls['conflict']} "
                f"| {fmt_pct(ln['dead_on_fill'], ln['evictions'])} "
                f"| {100.0 * fits:.1f}% |")
        lines.append("")
        if base is not None:
            base_cls = base["l1"]["miss_classes"]
            deltas = []
            for scheme, rec in sorted(schemes.items()):
                if scheme == "base":
                    continue
                cls = rec["l1"]["miss_classes"]
                deltas.append(
                    f"**{scheme}** vs base: "
                    f"{fmt_delta(rec['l1']['misses'], base['l1']['misses'])} "
                    f"misses ("
                    f"compulsory {fmt_delta(cls['compulsory'], base_cls['compulsory'])}, "
                    f"capacity {fmt_delta(cls['capacity'], base_cls['capacity'])}, "
                    f"conflict {fmt_delta(cls['conflict'], base_cls['conflict'])})"
                )
            if deltas:
                lines.append("Miss-class deltas — the capacity "
                             "column is the compression story:")
                lines.append("")
                for d in deltas:
                    lines.append(f"- {d}")
                lines.append("")
            # Reuse-distance CDF shift vs base at a few distances.
            others = [s for s in sorted(schemes) if s != "base"]
            if others:
                lines.append("Reuse-distance CDF (fraction of warm "
                             "reuses within 2^k distinct blocks):")
                lines.append("")
                header = "| k | base |"
                rule = "|---:|---:|"
                for s in others:
                    header += f" {s} |"
                    rule += "---:|"
                lines.append(header)
                lines.append(rule)
                for k in (0, 2, 4, 6, 8, 10):
                    row = (f"| {k} "
                           f"| {reuse_cdf_at(base, k):.3f} |")
                    for s in others:
                        row += f" {reuse_cdf_at(schemes[s], k):.3f} |"
                    lines.append(row)
                lines.append("")

    lines.append(f"*(generated by tools/tepic_reports.py from "
                 f"`{path}`)*")
    return "\n".join(lines) + "\n"


# --- SVG per-set heatmap ---------------------------------------------


def heat_color(value, peak):
    t = value / peak if peak else 0.0
    r = round(HEAT_LOW[0] + (HEAT_HIGH[0] - HEAT_LOW[0]) * t)
    g = round(HEAT_LOW[1] + (HEAT_HIGH[1] - HEAT_LOW[1]) * t)
    b = round(HEAT_LOW[2] + (HEAT_HIGH[2] - HEAT_LOW[2]) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(doc, max_width=1200):
    """One epochs x sets access matrix per (workload, scheme)."""
    workloads = doc["structure"]["workloads"]
    panels = []
    for wl, schemes in sorted(workloads.items()):
        for scheme, rec in sorted(schemes.items()):
            panels.append((f"{wl} / {scheme}", rec))

    cell = 10
    label_h = 18
    pad = 14
    width = max_width
    y = pad
    body = []
    for title, rec in panels:
        rows = rec["heatmap"]["accesses"]
        sets = rec["config"]["sets"]
        epochs = rec["config"]["heatmap_epochs"]
        c = max(2, min(cell, (width - 2 * pad) // max(1, sets)))
        peak = max((v for row in rows for v in row), default=0)
        body.append(f'<text x="{pad}" y="{y + 12}" font-size="12">'
                    f'{svg_escape(title)} — {sets} sets x {epochs} '
                    f'epochs, peak {peak} line accesses</text>')
        y += label_h
        for e, row in enumerate(rows):
            for s, v in enumerate(row):
                body.append(
                    f'<rect x="{pad + s * c}" y="{y + e * c}" '
                    f'width="{c}" height="{c}" '
                    f'fill="{heat_color(v, peak)}"/>')
        y += epochs * c + pad
    height = y + pad
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{pad}" y="{pad}" font-size="13">'
        f'{svg_escape(doc["name"])} — per-set L1 line accesses over '
        f'time (rows = epochs, columns = sets)</text>',
    ]
    out.extend(body)
    out.append('</svg>')
    return "\n".join(out) + "\n"


