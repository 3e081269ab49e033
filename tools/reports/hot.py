"""tepic-hot-v1: dynamic-behavior reports (the HOT_*.json files every
bench binary and `tepicc --report-dir=` emit).

Validation re-derives the tiling invariants the C++ recorder asserts:

  * the top-K block rows plus the "rest" residual tile
    blocks_simulated, cycles and stall_cycles exactly,
  * the coverage curve is the exact prefix sum of the top rows
    (monotone by construction),
  * per-function rollups tile the totals (fetches, cycles, stall,
    static and executed blocks) when attribution is present,
  * branch sites: taken + not_taken == blocks_simulated (one
    prediction per event), the per-site rows plus "rest" tile every
    branch total, and the per-site mispredict stalls tile the
    mispredict stall counter,
  * the phase matrix columns reproduce the top blocks' fetch counts
    and its rows (plus the per-epoch rest) tile blocks_simulated.

--compare covers the "structure" section: every recorded counter is a
pure function of (trace, config) and must not depend on --jobs.
Renders a Markdown "what would selective compression buy?" report
(optionally joined with the per-function bits of a tepic-size-v1
report) and an SVG hot/cold coverage curve.
"""

from tepic_reports import (check_keys, check_nonneg_int, fmt_pct,
                           invariant_error, svg_escape, usage_error)

SCHEMA = "tepic-hot-v1"
SIZE_SCHEMA = "tepic-size-v1"

SCHEME_KEYS = ("config", "totals", "blocks", "functions",
               "branch_sites", "phase")
CONFIG_KEYS = ("static_blocks", "phase_epochs", "top_blocks")
TOTAL_KEYS = ("blocks_simulated", "cycles", "stall_cycles",
              "executed_blocks")
BLOCKS_KEYS = ("top", "rest", "coverage")
BLOCK_REST_KEYS = ("fetches", "cycles", "stall")
FUNC_KEYS = ("static_blocks", "executed_blocks", "fetches", "cycles",
             "stall")
BRANCH_KEYS = ("totals", "top", "rest")
BRANCH_TOTAL_KEYS = ("predictions", "taken", "not_taken",
                     "mispredicts", "mispredict_stall_cycles",
                     "unconsumed_mispredicts")
BRANCH_REST_KEYS = ("taken", "not_taken", "mispredicts",
                    "mispredict_stall")
PHASE_KEYS = ("block_ids", "matrix", "rest")

# Line colors for the coverage curves (scheme -> stroke).
SCHEME_COLORS = {"base": "#7f7f7f", "compressed": "#1f77b4",
                 "tailored": "#d62728"}
FALLBACK_COLORS = ("#2ca02c", "#9467bd", "#8c564b", "#e377c2")


# --- validation ------------------------------------------------------


def check_row(path, what, row, width):
    if not isinstance(row, list) or len(row) != width:
        usage_error(f"{path}: {what} is not a {width}-element row")
    for i, v in enumerate(row):
        check_nonneg_int(path, f"{what}[{i}]", v)


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
            if rec["config"]["phase_epochs"] == 0:
                usage_error(f"{path}: {what} config['phase_epochs'] "
                            f"is zero")
            k = rec["config"]["top_blocks"]
            if k > rec["config"]["static_blocks"]:
                usage_error(f"{path}: {what} config['top_blocks'] "
                            f"exceeds static_blocks")
            check_keys(path, f"{what} totals", rec["totals"],
                       TOTAL_KEYS)
            for key in TOTAL_KEYS:
                check_nonneg_int(path, f"{what} totals['{key}']",
                                 rec["totals"][key])
            check_keys(path, f"{what} blocks", rec["blocks"],
                       BLOCKS_KEYS)
            top = rec["blocks"]["top"]
            if not isinstance(top, list) or len(top) != k:
                usage_error(f"{path}: {what} blocks['top'] is not a "
                            f"{k}-row list")
            for i, row in enumerate(top):
                check_row(path, f"{what} blocks['top'][{i}]", row, 4)
            check_keys(path, f"{what} blocks rest",
                       rec["blocks"]["rest"], BLOCK_REST_KEYS)
            cov = rec["blocks"]["coverage"]
            if not isinstance(cov, list) or len(cov) != k:
                usage_error(f"{path}: {what} blocks['coverage'] is "
                            f"not a {k}-element array")
            if not isinstance(rec["functions"], dict):
                usage_error(f"{path}: {what} functions is not an "
                            f"object")
            for fn, agg in rec["functions"].items():
                check_keys(path, f"{what} functions['{fn}']", agg,
                           FUNC_KEYS)
                for key in FUNC_KEYS:
                    check_nonneg_int(
                        path, f"{what} functions['{fn}']['{key}']",
                        agg[key])
            check_keys(path, f"{what} branch_sites",
                       rec["branch_sites"], BRANCH_KEYS)
            check_keys(path, f"{what} branch_sites totals",
                       rec["branch_sites"]["totals"],
                       BRANCH_TOTAL_KEYS)
            sites = rec["branch_sites"]["top"]
            if not isinstance(sites, list) or len(sites) != k:
                usage_error(f"{path}: {what} branch_sites['top'] is "
                            f"not a {k}-row list")
            for i, row in enumerate(sites):
                check_row(path, f"{what} branch_sites['top'][{i}]",
                          row, 5)
            check_keys(path, f"{what} branch_sites rest",
                       rec["branch_sites"]["rest"], BRANCH_REST_KEYS)
            check_keys(path, f"{what} phase", rec["phase"],
                       PHASE_KEYS)
            epochs = rec["config"]["phase_epochs"]
            ids = rec["phase"]["block_ids"]
            if not isinstance(ids, list) or len(ids) != k:
                usage_error(f"{path}: {what} phase['block_ids'] is "
                            f"not a {k}-element array")
            matrix = rec["phase"]["matrix"]
            if not isinstance(matrix, list) or len(matrix) != epochs:
                usage_error(f"{path}: {what} phase['matrix'] is not "
                            f"a {epochs}-row matrix")
            for e, row in enumerate(matrix):
                check_row(path, f"{what} phase['matrix'][{e}]", row,
                          k)
            rest = rec["phase"]["rest"]
            if not isinstance(rest, list) or len(rest) != epochs:
                usage_error(f"{path}: {what} phase['rest'] is not a "
                            f"{epochs}-element array")
    return workloads


def check_invariants(path, workloads):
    """Semantic checks (exit 1 on failure) — the schema's promises.

    Every message names the counter that broke so CI failures read as
    "which number drifted", not just "something differs".
    """
    for wl, schemes in sorted(workloads.items()):
        for scheme, rec in sorted(schemes.items()):
            where = f"{path}: {wl}/{scheme}"
            totals = rec["totals"]
            top = rec["blocks"]["top"]
            rest = rec["blocks"]["rest"]

            seen = set()
            prev_fetches = None
            prev_id = None
            for bid, fetches, cycles, stall in top:
                if bid >= rec["config"]["static_blocks"]:
                    invariant_error(
                        f"{where}: blocks.top names block {bid} "
                        f"beyond static_blocks = "
                        f"{rec['config']['static_blocks']}")
                if bid in seen:
                    invariant_error(f"{where}: blocks.top lists "
                                    f"block {bid} twice")
                seen.add(bid)
                if stall > cycles:
                    invariant_error(
                        f"{where}: blocks.top[{bid}] stall {stall} "
                        f"> cycles {cycles}")
                if prev_fetches is not None and \
                        (fetches, -bid) > (prev_fetches, -prev_id):
                    invariant_error(
                        f"{where}: blocks.top is not sorted hottest "
                        f"first (block {bid} after {prev_id})")
                prev_fetches, prev_id = fetches, bid

            top_f = sum(r[1] for r in top)
            top_c = sum(r[2] for r in top)
            top_s = sum(r[3] for r in top)
            if top_f + rest["fetches"] != totals["blocks_simulated"]:
                invariant_error(
                    f"{where}: per-block fetches must tile "
                    f"blocks_simulated: top {top_f} + rest "
                    f"{rest['fetches']} != "
                    f"{totals['blocks_simulated']}")
            if top_c + rest["cycles"] != totals["cycles"]:
                invariant_error(
                    f"{where}: per-block cycles must tile the cycle "
                    f"total: top {top_c} + rest {rest['cycles']} != "
                    f"{totals['cycles']}")
            if top_s + rest["stall"] != totals["stall_cycles"]:
                invariant_error(
                    f"{where}: per-block stalls must tile "
                    f"stall_cycles: top {top_s} + rest "
                    f"{rest['stall']} != {totals['stall_cycles']}")
            if totals["stall_cycles"] > totals["cycles"]:
                invariant_error(
                    f"{where}: totals.stall_cycles "
                    f"{totals['stall_cycles']} > totals.cycles "
                    f"{totals['cycles']}")
            if totals["executed_blocks"] > \
                    rec["config"]["static_blocks"]:
                invariant_error(
                    f"{where}: executed_blocks "
                    f"{totals['executed_blocks']} > static_blocks "
                    f"{rec['config']['static_blocks']}")

            cov = rec["blocks"]["coverage"]
            running = 0
            for i, value in enumerate(cov):
                running += top[i][1]
                if value != running:
                    invariant_error(
                        f"{where}: coverage[{i}] = {value} is not "
                        f"the prefix sum of blocks.top fetches "
                        f"({running})")

            funcs = rec["functions"]
            if funcs:
                for field, total in (
                        ("fetches", totals["blocks_simulated"]),
                        ("cycles", totals["cycles"]),
                        ("stall", totals["stall_cycles"]),
                        ("static_blocks",
                         rec["config"]["static_blocks"]),
                        ("executed_blocks",
                         totals["executed_blocks"])):
                    got = sum(f[field] for f in funcs.values())
                    if got != total:
                        invariant_error(
                            f"{where}: per-function {field} must "
                            f"tile the total: {got} != {total}")
                for fn, agg in sorted(funcs.items()):
                    if agg["executed_blocks"] > agg["static_blocks"]:
                        invariant_error(
                            f"{where}: function '{fn}' executes more "
                            f"blocks than it has")
                    if agg["stall"] > agg["cycles"]:
                        invariant_error(
                            f"{where}: function '{fn}' stall "
                            f"{agg['stall']} > cycles "
                            f"{agg['cycles']}")

            bt = rec["branch_sites"]["totals"]
            if bt["predictions"] != bt["taken"] + bt["not_taken"]:
                invariant_error(
                    f"{where}: branch predictions "
                    f"{bt['predictions']} != taken {bt['taken']} + "
                    f"not_taken {bt['not_taken']}")
            if bt["predictions"] != totals["blocks_simulated"]:
                invariant_error(
                    f"{where}: every event predicts exactly once: "
                    f"predictions {bt['predictions']} != "
                    f"blocks_simulated "
                    f"{totals['blocks_simulated']}")
            if bt["mispredicts"] > bt["predictions"]:
                invariant_error(
                    f"{where}: mispredicts {bt['mispredicts']} > "
                    f"predictions {bt['predictions']}")
            if bt["unconsumed_mispredicts"] > bt["mispredicts"]:
                invariant_error(
                    f"{where}: unconsumed_mispredicts "
                    f"{bt['unconsumed_mispredicts']} > mispredicts "
                    f"{bt['mispredicts']}")
            if bt["mispredict_stall_cycles"] > \
                    totals["stall_cycles"]:
                invariant_error(
                    f"{where}: mispredict_stall_cycles "
                    f"{bt['mispredict_stall_cycles']} > "
                    f"stall_cycles {totals['stall_cycles']}")
            sites = rec["branch_sites"]["top"]
            srest = rec["branch_sites"]["rest"]
            prev_key = None
            sseen = set()
            for sid, taken, not_taken, mis, stall in sites:
                if sid in sseen:
                    invariant_error(f"{where}: branch_sites.top "
                                    f"lists site {sid} twice")
                sseen.add(sid)
                if mis > taken + not_taken:
                    invariant_error(
                        f"{where}: site {sid} mispredicts {mis} > "
                        f"its predictions {taken + not_taken}")
                if stall > 0 and mis == 0:
                    invariant_error(
                        f"{where}: site {sid} has mispredict stall "
                        f"{stall} but no mispredict")
                key = (stall, mis, -sid)
                if prev_key is not None and key > prev_key:
                    invariant_error(
                        f"{where}: branch_sites.top is not sorted "
                        f"worst first (site {sid})")
                prev_key = key
            for field, idx, total in (
                    ("taken", 1, bt["taken"]),
                    ("not_taken", 2, bt["not_taken"]),
                    ("mispredicts", 3, bt["mispredicts"]),
                    ("mispredict_stall", 4,
                     bt["mispredict_stall_cycles"])):
                got = sum(r[idx] for r in sites) + srest[field]
                if got != total:
                    invariant_error(
                        f"{where}: per-site {field} must tile the "
                        f"branch total: top + rest = {got} != "
                        f"{total}")

            ids = rec["phase"]["block_ids"]
            if ids != [r[0] for r in top]:
                invariant_error(
                    f"{where}: phase.block_ids do not match "
                    f"blocks.top order")
            matrix = rec["phase"]["matrix"]
            for j, (bid, fetches, _, _) in enumerate(top):
                col = sum(row[j] for row in matrix)
                if col != fetches:
                    invariant_error(
                        f"{where}: phase column for block {bid} "
                        f"sums to {col} != its fetch count "
                        f"{fetches}")
            grid = sum(sum(row) for row in matrix) + \
                sum(rec["phase"]["rest"])
            if grid != totals["blocks_simulated"]:
                invariant_error(
                    f"{where}: phase matrix + rest must tile "
                    f"blocks_simulated: {grid} != "
                    f"{totals['blocks_simulated']}")


def validate(path, doc):
    check_invariants(path, check_schema(path, doc))


def summary(doc):
    workloads = doc["structure"]["workloads"]
    records = sum(len(s) for s in workloads.values())
    fetches = sum(rec["totals"]["blocks_simulated"]
                  for schemes in workloads.values()
                  for rec in schemes.values())
    mispredicts = sum(rec["branch_sites"]["totals"]["mispredicts"]
                      for schemes in workloads.values()
                      for rec in schemes.values())
    return (f"{len(workloads)} workloads, {records} records; "
            f"{fetches} fetches tiled per block, {mispredicts} "
            f"mispredicts tiled per site")


def comparable(doc):
    return {"structure": doc["structure"]}


# --- Markdown "what would selective compression buy?" report ---------


def coverage_at(rec, k):
    """Fetches covered by the k hottest blocks (count, not ratio)."""
    cov = rec["blocks"]["coverage"]
    if not cov:
        return 0
    return cov[min(k, len(cov)) - 1]


# The fetch simulator's "compressed" organisation decodes the
# huff-full image, which is what the SIZE report calls it.
SIZE_SCHEME_ALIAS = {"compressed": "huff-full"}


def function_bits(size_doc, wl, scheme):
    """Per-function encoded bits from a tepic-size-v1 by_function
    tree ({"func": {name: {b0: bits, ...}}}); None if absent."""
    rec = (size_doc.get("workloads", {}).get(wl, {})
           .get("schemes", {})
           .get(SIZE_SCHEME_ALIAS.get(scheme, scheme)))
    if rec is None:
        return None
    tree = rec.get("by_function", {}).get("func")
    if not isinstance(tree, dict):
        return None
    return {fn: sum(leaves.values()) for fn, leaves in tree.items()}


def render_md(path, doc, size_doc=None):
    workloads = doc["structure"]["workloads"]
    lines = [f"# Dynamic hotness: {doc['name']}", ""]
    lines.append(
        "Which blocks should stay uncompressed? Profile-guided "
        "selective compression (ROADMAP item 4(a), per Ozturk et "
        "al.) keeps the hottest blocks in plain encoding — paying "
        "bits to avoid per-fetch decompression — and compresses the "
        "cold tail. The tables below rank static blocks and "
        "functions by their share of the *dynamic* fetch stream; "
        "the coverage column says how small the hot set really is.")
    lines.append("")

    for wl, schemes in sorted(workloads.items()):
        lines.append(f"## {wl}")
        lines.append("")
        lines.append("| scheme | fetches | static | executed "
                     "| top-1 | top-10 | mispredict rate "
                     "| mispredict stall share |")
        lines.append("|---|---:|---:|---:|---:|---:|---:|---:|")
        for scheme, rec in sorted(schemes.items()):
            totals = rec["totals"]
            bt = rec["branch_sites"]["totals"]
            lines.append(
                f"| {scheme} | {totals['blocks_simulated']} "
                f"| {rec['config']['static_blocks']} "
                f"| {totals['executed_blocks']} "
                f"| {fmt_pct(coverage_at(rec, 1), totals['blocks_simulated'])} "
                f"| {fmt_pct(coverage_at(rec, 10), totals['blocks_simulated'])} "
                f"| {fmt_pct(bt['mispredicts'], bt['predictions'])} "
                f"| {fmt_pct(bt['mispredict_stall_cycles'], totals['stall_cycles'])} |")
        lines.append("")

        # One scheme carries the block ranking; prefer the compressed
        # organisation (it is the one selective compression tunes).
        pick = ("compressed" if "compressed" in schemes
                else sorted(schemes)[0])
        rec = schemes[pick]
        totals = rec["totals"]
        lines.append(f"Hottest blocks ({pick}): candidates to *keep "
                     f"uncompressed* — their fetch share is the "
                     f"decode traffic selective compression avoids.")
        lines.append("")
        lines.append("| rank | block | fetch share | cumulative "
                     "| cycles share | stall |")
        lines.append("|---:|---:|---:|---:|---:|---:|")
        for i, (bid, fetches, cycles, stall) in \
                enumerate(rec["blocks"]["top"][:10]):
            lines.append(
                f"| {i + 1} | b{bid} "
                f"| {fmt_pct(fetches, totals['blocks_simulated'])} "
                f"| {fmt_pct(rec['blocks']['coverage'][i], totals['blocks_simulated'])} "
                f"| {fmt_pct(cycles, totals['cycles'])} "
                f"| {stall} |")
        lines.append("")

        funcs = rec["functions"]
        if funcs:
            bits = (function_bits(size_doc, wl, pick)
                    if size_doc else None)
            total_bits = sum(bits.values()) if bits else 0
            lines.append(
                "Per-function rollup — the selective-compression "
                "input format. `score` multiplies dynamic-fetch "
                "share by compressed-size share: high-scoring "
                "functions dominate both the fetch stream and the "
                "encoded image, so they are where the "
                "compress-or-not decision actually matters."
                if bits else
                "Per-function rollup — the selective-compression "
                "input format (run with --size SIZE_*.json to add "
                "compressed-bit shares and the combined score).")
            lines.append("")
            header = "| function | fetch share | cycles | stall |"
            rule = "|---|---:|---:|---:|"
            if bits:
                header += " size share | score |"
                rule += "---:|---:|"
            lines.append(header)
            lines.append(rule)

            def score(item):
                fn, agg = item
                f_share = (agg["fetches"] /
                           totals["blocks_simulated"]
                           if totals["blocks_simulated"] else 0.0)
                s_share = ((bits.get(fn, 0) / total_bits)
                           if bits and total_bits else 0.0)
                return f_share * s_share if bits else f_share

            ranked = sorted(funcs.items(),
                            key=lambda kv: (-score(kv), kv[0]))
            for fn, agg in ranked:
                row = (f"| {fn} "
                       f"| {fmt_pct(agg['fetches'], totals['blocks_simulated'])} "
                       f"| {agg['cycles']} | {agg['stall']} |")
                if bits:
                    row += (f" {fmt_pct(bits.get(fn, 0), total_bits)} "
                            f"| {score((fn, agg)):.4f} |")
                lines.append(row)
            lines.append("")

        worst = [r for r in rec["branch_sites"]["top"][:5]
                 if r[3] > 0]
        if worst:
            lines.append(f"Worst-predicted branch sites ({pick}); "
                         f"their stalls tile the mispredict stall "
                         f"counter exactly:")
            lines.append("")
            lines.append("| site | taken | not taken | mispredicts "
                         "| stall cycles |")
            lines.append("|---:|---:|---:|---:|---:|")
            for sid, taken, not_taken, mis, stall in worst:
                lines.append(f"| b{sid} | {taken} | {not_taken} "
                             f"| {mis} | {stall} |")
            lines.append("")

    lines.append(f"*(generated by tools/tepic_reports.py from "
                 f"`{path}`)*")
    return "\n".join(lines) + "\n"


# --- SVG coverage curve ----------------------------------------------


def scheme_color(scheme, index):
    return SCHEME_COLORS.get(
        scheme, FALLBACK_COLORS[index % len(FALLBACK_COLORS)])


def render_svg(doc):
    """One hot/cold coverage panel per workload: fraction of dynamic
    fetches covered by the top-k blocks, one polyline per scheme."""
    workloads = doc["structure"]["workloads"]
    panel_w, panel_h, pad = 420, 160, 36
    y = pad
    body = []
    for wl, schemes in sorted(workloads.items()):
        x0, y0 = pad, y + 16
        body.append(f'<text x="{x0}" y="{y + 8}" font-size="12">'
                    f'{svg_escape(wl)} — dynamic fetches covered by '
                    f'top-k blocks</text>')
        body.append(f'<rect x="{x0}" y="{y0}" width="{panel_w}" '
                    f'height="{panel_h}" fill="#ffffff" '
                    f'stroke="#cccccc"/>')
        for frac in (0.5, 0.9, 1.0):
            gy = y0 + panel_h - frac * panel_h
            body.append(f'<line x1="{x0}" y1="{gy:.1f}" '
                        f'x2="{x0 + panel_w}" y2="{gy:.1f}" '
                        f'stroke="#eeeeee"/>')
            body.append(f'<text x="{x0 - 30}" y="{gy + 4:.1f}" '
                        f'font-size="9">{frac:.1f}</text>')
        for i, (scheme, rec) in enumerate(sorted(schemes.items())):
            total = rec["totals"]["blocks_simulated"]
            cov = rec["blocks"]["coverage"]
            if not total or not cov:
                continue
            k = len(cov)
            points = []
            for j, value in enumerate(cov):
                px = x0 + (j + 1) / k * panel_w
                py = y0 + panel_h - (value / total) * panel_h
                points.append(f"{px:.1f},{py:.1f}")
            color = scheme_color(scheme, i)
            body.append(f'<polyline fill="none" stroke="{color}" '
                        f'stroke-width="1.5" '
                        f'points="{" ".join(points)}"/>')
            body.append(
                f'<text x="{x0 + panel_w + 8}" '
                f'y="{y0 + 14 + 14 * i}" font-size="10" '
                f'fill="{color}">{svg_escape(scheme)} '
                f'(top-10: {100.0 * coverage_at(rec, 10) / total:.1f}%)'
                f'</text>')
        body.append(f'<text x="{x0}" y="{y0 + panel_h + 14}" '
                    f'font-size="9">k = 1 .. '
                    f'{max((len(r["blocks"]["coverage"]) for r in schemes.values()), default=0)} '
                    f'hottest static blocks</text>')
        y = y0 + panel_h + 2 * pad
    width = panel_w + 2 * pad + 220
    height = y
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{pad}" y="{pad - 16}" font-size="13">'
        f'{svg_escape(doc["name"])} — hot/cold coverage curves '
        f'(monotone by construction)</text>',
    ]
    out.extend(body)
    out.append('</svg>')
    return "\n".join(out) + "\n"


