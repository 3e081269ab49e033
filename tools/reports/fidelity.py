"""--fidelity DIR: the paper-fidelity report.

Reads the BENCH_*.json snapshots the figure benches write into DIR
(schema tepic-metrics-v1; one per binary, e.g.
BENCH_fig05_compression.json) and renders a Markdown (and optionally
HTML) report that joins the headline gauges across schemes and
workloads:

  * fig05 — compression ratios per scheme vs the paper's Figure 5
  * fig07 — ATT size overhead vs the paper's ~15.5 %
  * fig10 — decoder transistor counts vs the Figure 10 ordering,
    plus the Huffman codeword-length distributions
    (size.*.codelen histograms) behind those decoder sizes
  * fig13 — IPC / speedup-vs-Base summary vs the Figure 13 shape
  * fig14 — bus bit-flip ratios vs the Figure 14 shape
  * stall-cause attribution: the per-scheme Table-1 taxonomy split

Missing or malformed metric sections degrade to a note in the report
(never a traceback): a snapshot from an older build simply renders
with fewer rows and an explanation.

Each headline row carries two reference points:

  expected  what THIS reproduction measures at the committed seed
            (EXPERIMENTS.md); the pass/warn verdict is against this
            value — "pass" means the reproduction is stable, "warn"
            means fidelity drifted and EXPERIMENTS.md needs a look
  paper     the figure value reported by Larin & Conte (MICRO-32),
            shown for context; absolute deviations from the paper
            are expected and documented, so they never warn

A report is generated (exit 0) even with warns.
"""

import html
import os
import sys

from tepic_reports import PROG, load, usage_error, write_file

# (gauge, label, repo-expected, paper reference or None, band)
# band = allowed relative deviation from repo-expected for "pass".
HEADLINES = [
    ("BENCH_fig05_compression.json", [
        ("fig05.ratio.full", "Full-op Huffman size vs base",
         0.1813, 0.30, 0.10),
        ("fig05.ratio.tailored", "Tailored ISA size vs base",
         0.4841, 0.64, 0.10),
        ("fig05.ratio.byte", "Byte Huffman size vs base",
         0.5684, 0.72, 0.10),
        ("fig05.ratio.stream", "Stream Huffman size vs base",
         0.3483, 0.75, 0.10),
        ("fig05.ratio.stream_1", "Best-size stream vs base",
         0.3171, None, 0.10),
    ]),
    ("BENCH_fig07_att.json", [
        ("fig07.att_overhead.avg", "ATT overhead vs original image",
         0.0852, 0.155, 0.10),
    ]),
    ("BENCH_fig10_decoder.json", [
        ("fig10.decoder_kt.byte", "Byte decoder kT",
         96.64, 97.0, 0.10),
        ("fig10.decoder_kt.stream", "Stream decoder kT",
         502.1, 490.0, 0.10),
        ("fig10.decoder_kt.full", "Full decoder kT",
         935.7, 940.0, 0.10),
        ("fig10.decoder_kt.tailored", "Tailored decoder kT",
         2.42, 2.4, 0.10),
    ]),
    ("BENCH_fig13_ipc.json", [
        ("fig13.ipc.base", "Base IPC (suite mean)",
         1.4582, None, 0.05),
        ("fig13.ipc.compressed", "Compressed IPC (suite mean)",
         1.4822, None, 0.05),
        ("fig13.ipc.tailored", "Tailored IPC (suite mean)",
         1.4827, None, 0.05),
        ("fig13.speedup.compressed_mean",
         "Compressed speedup vs Base (mean)", 0.0184, None, 0.25),
        ("fig13.speedup.tailored_mean",
         "Tailored speedup vs Base (mean)", 0.0178, None, 0.25),
        ("fig13.compressed_losses",
         "Workloads where Compressed < Base", 4, 4, 0.0),
    ]),
    ("BENCH_fig14_bitflips.json", [
        ("fig14.flip_ratio.compressed",
         "Compressed bus flips vs Base", 0.3314, None, 0.10),
        ("fig14.flip_ratio.tailored",
         "Tailored bus flips vs Base", 0.6547, None, 0.10),
    ]),
]

STALL_CAUSES = ("mispredict", "l1_refill", "decode_stage", "atb_miss")
SCHEMES = ("base", "tailored", "compressed")


def section(doc, name, source, notes):
    """doc[name] as a dict; on a missing/malformed section, returns
    {} and appends an explanatory note instead of raising."""
    value = doc.get(name)
    if value is None:
        notes.append(f"{source}: section '{name}' missing — "
                     "snapshot from an older build?")
        return {}
    if not isinstance(value, dict):
        notes.append(f"{source}: section '{name}' malformed "
                     f"(expected an object, got "
                     f"{type(value).__name__})")
        return {}
    return value


def fmt(value):
    if value is None:
        return "—"
    if isinstance(value, int) or float(value).is_integer() \
            and abs(value) >= 1:
        return f"{value:g}"
    return f"{value:.4g}"


def verdict(measured, expected, band):
    if expected == 0:
        return "pass" if measured == 0 else "warn"
    deviation = abs(measured - expected) / abs(expected)
    return "pass" if deviation <= band else "warn"


def headline_rows(input_dir, notes):
    """Yields (file, label, measured, expected, paper, verdict)."""
    rows = []
    for file_name, entries in HEADLINES:
        path = os.path.join(input_dir, file_name)
        if not os.path.exists(path):
            rows.append((file_name, "(file missing — bench not run)",
                         None, None, None, "warn"))
            continue
        gauges = section(load(path), "gauges", file_name, notes)
        for gauge, label, expected, paper, band in entries:
            measured = gauges.get(gauge)
            if measured is None:
                rows.append((file_name, f"{label} [{gauge} missing]",
                             None, expected, paper, "warn"))
                continue
            rows.append((file_name, label, measured, expected, paper,
                         verdict(measured, expected, band)))
    return rows


def stall_rows(input_dir, notes):
    """Yields (scheme, cause, cycles, share%) plus tiling checks."""
    path = os.path.join(input_dir, "BENCH_fig13_ipc.json")
    if not os.path.exists(path):
        return [], []
    counters = section(load(path), "counters", "BENCH_fig13_ipc.json",
                       notes)
    rows, checks = [], []
    for scheme in SCHEMES:
        prefix = f"fetch.{scheme}."
        total = counters.get(prefix + "stall_cycles")
        if total is None:
            continue
        cause_sum = 0
        for cause in STALL_CAUSES:
            cycles = counters.get(f"{prefix}stall.{cause}", 0)
            cause_sum += cycles
            share = 100.0 * cycles / total if total else 0.0
            rows.append((scheme, cause, cycles, share))
        saved = counters.get(prefix + "l0_saved_cycles", 0)
        checks.append((scheme, total, cause_sum, saved,
                       "pass" if cause_sum == total else "FAIL"))
    return rows, checks


def codelen_rows(input_dir, notes):
    """(alphabet, codes, min/mean/max length) from size.*.codelen."""
    name = "BENCH_fig10_decoder.json"
    path = os.path.join(input_dir, name)
    if not os.path.exists(path):
        notes.append(f"{name} missing — codeword-length section "
                     "skipped (run the fig10 bench)")
        return []
    hists = section(load(path), "histograms", name, notes)
    rows = []
    for key in sorted(hists):
        if not key.startswith("size.") or \
                not key.endswith(".codelen"):
            continue
        alphabet = key[len("size."):-len(".codelen")]
        hist = hists[key]
        bins = hist.get("bins") if isinstance(hist, dict) else None
        if not isinstance(bins, list) or not bins:
            notes.append(f"{name}: histogram '{key}' malformed or "
                         "empty — row skipped")
            continue
        codes = sum(count for _, count in bins)
        mean = sum(length * count for length, count in bins) / codes
        rows.append((alphabet, codes, bins[0][0], mean, bins[-1][0]))
    if not rows and os.path.exists(path):
        notes.append(f"{name}: no size.*.codelen histograms — "
                     "snapshot from an older build?")
    return rows


def render_markdown(rows, stalls, checks, codelens, notes, input_dir):
    out = ["# tepic paper-fidelity report", ""]
    out.append(f"Input: `{input_dir}`. Verdicts compare against this "
               "reproduction's committed seed values (EXPERIMENTS.md);"
               " paper values are context, not gates.")
    out.append("")
    out.append("## Headline figures")
    out.append("")
    out.append("| figure | metric | measured | expected | Δ vs exp | "
               "paper | verdict |")
    out.append("|---|---|---|---|---|---|---|")
    warns = 0
    for file_name, label, measured, expected, paper, v in rows:
        fig = file_name.replace("BENCH_", "").replace(".json", "")
        delta = "—"
        if measured is not None and expected:
            delta = f"{100.0 * (measured - expected) / expected:+.1f}%"
        if v == "warn":
            warns += 1
        out.append(f"| {fig} | {label} | {fmt(measured)} | "
                   f"{fmt(expected)} | {delta} | {fmt(paper)} | "
                   f"{v} |")
    out.append("")
    if stalls:
        out.append("## Stall-cause attribution (fig13 run)")
        out.append("")
        out.append("| scheme | cause | cycles | share |")
        out.append("|---|---|---|---|")
        for scheme, cause, cycles, share in stalls:
            out.append(f"| {scheme} | {cause} | {cycles} | "
                       f"{share:.1f}% |")
        out.append("")
        out.append("| scheme | stall_cycles | Σ causes | L0 saved | "
                   "tiling |")
        out.append("|---|---|---|---|---|")
        for scheme, total, cause_sum, saved, ok in checks:
            out.append(f"| {scheme} | {total} | {cause_sum} | "
                       f"{saved} | {ok} |")
        out.append("")
    if codelens:
        out.append("## Huffman codeword lengths (fig10 run)")
        out.append("")
        out.append("Per-alphabet code-length distributions "
                   "(size.*.codelen): deeper codes mean a bigger "
                   "canonical decoder, which is what fig10's kT "
                   "counts measure.")
        out.append("")
        out.append("| alphabet | codes | min len | mean len | "
                   "max len |")
        out.append("|---|---|---|---|---|")
        for alphabet, codes, lo, mean, hi in codelens:
            out.append(f"| {alphabet} | {codes} | {lo} | {mean:.2f} "
                       f"| {hi} |")
        out.append("")
    if notes:
        out.append("## Notes")
        out.append("")
        for note in notes:
            out.append(f"- {note}")
        out.append("")
    out.append(f"**{warns} warn(s).** A warn means the reproduction "
               "moved away from its committed seed — check the diff "
               "and update EXPERIMENTS.md if intentional.")
    out.append("")
    return "\n".join(out), warns


def render_html(markdown_text):
    """Minimal static rendering: tables and headers, no JS."""
    lines = markdown_text.split("\n")
    out = ["<!DOCTYPE html><html><head><meta charset='utf-8'>",
           "<title>tepic fidelity report</title><style>",
           "body{font:14px sans-serif;margin:2em}",
           "table{border-collapse:collapse;margin:1em 0}",
           "td,th{border:1px solid #999;padding:4px 8px}",
           "</style></head><body>"]
    in_table = False
    for line in lines:
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-"} for c in cells):
                continue
            if not in_table:
                out.append("<table>")
                in_table = True
                tag = "th"
            else:
                tag = "td"
            out.append("<tr>" + "".join(
                f"<{tag}>{html.escape(c)}</{tag}>" for c in cells) +
                "</tr>")
            continue
        if in_table:
            out.append("</table>")
            in_table = False
        if line.startswith("# "):
            out.append(f"<h1>{html.escape(line[2:])}</h1>")
        elif line.startswith("## "):
            out.append(f"<h2>{html.escape(line[3:])}</h2>")
        elif line:
            out.append(f"<p>{html.escape(line)}</p>")
    if in_table:
        out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out)


def run(input_dir, md, html_path):
    if not os.path.isdir(input_dir):
        usage_error(f"input dir '{input_dir}' not found")
    notes = []
    rows = headline_rows(input_dir, notes)
    stalls, checks = stall_rows(input_dir, notes)
    codelens = codelen_rows(input_dir, notes)
    markdown_text, warns = render_markdown(rows, stalls, checks,
                                           codelens, notes, input_dir)
    if md:
        write_file(md, markdown_text)
        print(f"{PROG}: wrote {md} ({warns} warns)")
    else:
        sys.stdout.write(markdown_text)
    if html_path:
        write_file(html_path, render_html(markdown_text))
        print(f"{PROG}: wrote {html_path}")
