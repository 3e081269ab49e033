"""tepic-prof-v1: host-profile reports (PROF_*.json).

Validation is layered to match how the data can degrade:
  * structural problems (missing sections, unknown source, phases
    that don't tile the total) are hard failures,
  * graceful degradation (no perf events -> source "thread_cputime",
    zero samples) is reported as a note and exits 0 — CI containers
    routinely run with perf_event_paranoid locked down.

--compare covers the phase key set, the work counters (exact) and the
throughput key set; host counter values and throughput rates are
wall-clock data and exempt. The module also renders FlameGraph SVGs
from collapsed-stack text (the --prof-collapse= output).
"""

import sys

from tepic_reports import (PROG, check_nonneg_int, fmt_pct,
                           invariant_error, svg_escape, usage_error)

SCHEMA = "tepic-prof-v1"
COUNTER_KEYS = ("cycles", "instructions", "cache_misses",
                "branch_misses", "cpu_ns")
SOURCES = ("perf_event", "thread_cputime")


# --- validation ------------------------------------------------------


def check_counters(path, what, counters, extra=()):
    if not isinstance(counters, dict):
        usage_error(f"{path}: {what} is not an object")
    for key in COUNTER_KEYS + tuple(extra):
        check_nonneg_int(path, f"{what}['{key}']", counters.get(key))


def validate(path, doc):
    """Schema/invariant checks; returns a list of degradation notes."""
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        usage_error(f"{path}: missing report 'name'")
    if doc.get("source") not in SOURCES:
        usage_error(f"{path}: source {doc.get('source')!r} not one of "
                    f"{list(SOURCES)}")
    for section in ("total", "phases", "work", "throughput",
                    "samples"):
        if section not in doc:
            usage_error(f"{path}: missing section '{section}'")

    check_counters(path, "total", doc["total"])
    if not isinstance(doc["phases"], dict) or not doc["phases"]:
        usage_error(f"{path}: 'phases' is not a non-empty object")
    for phase, counters in doc["phases"].items():
        check_counters(path, f"phases['{phase}']", counters,
                       extra=("enters",))
    for name, value in doc["work"].items():
        check_nonneg_int(path, f"work['{name}']", value)
    for name, value in doc["throughput"].items():
        if not isinstance(value, (int, float)) or value < 0:
            usage_error(f"{path}: throughput['{name}'] is not a "
                        f"non-negative number")
    for key in ("taken", "dropped"):
        if not isinstance(doc["samples"].get(key), int):
            usage_error(f"{path}: samples['{key}'] is not an integer")

    # The schema's core promise: phases tile the total exactly, like
    # the SizeLedger tiles an image's bits.
    for key in COUNTER_KEYS:
        total = doc["total"][key]
        tiled = sum(p[key] for p in doc["phases"].values())
        if tiled != total:
            invariant_error(
                f"{path}: phases do not tile total['{key}']: "
                f"sum {tiled} != total {total}")
    return degradation_notes(doc)


def degradation_notes(doc):
    notes = []
    if doc["source"] == "thread_cputime":
        notes.append("perf events unavailable (perf_event_paranoid?):"
                     " cycles fall back to CLOCK_THREAD_CPUTIME_ID ns"
                     "; instructions/cache/branch counters are 0")
    if doc["samples"]["dropped"] > 0:
        notes.append(f"{doc['samples']['dropped']} stack sample(s) "
                     f"dropped (ring buffer full)")
    if doc["total"]["cycles"] == 0:
        notes.append("total cycles is 0: no Scope ran (or the "
                     "session thread never started a session)")
    return notes


def summary(doc):
    return (f"source {doc['source']}, {len(doc['phases'])} phases "
            f"tiling {doc['total']['cycles']} cycles, "
            f"{len(doc['work'])} work counters")


def comparable(doc):
    """Key sets for phases and throughput, exact work values."""
    return {"phases": dict.fromkeys(doc["phases"]),
            "throughput": dict.fromkeys(doc["throughput"]),
            "work": doc["work"]}


# --- Markdown hot-path report ----------------------------------------


def fmt_count(value):
    return f"{value:,}"


def render_md(path, doc):
    total = doc["total"]
    lines = [f"# Host profile: {doc['name']}", ""]
    lines.append(f"Source: `{doc['source']}` &mdash; total "
                 f"{fmt_count(total['cycles'])} cycles, "
                 f"{total['cpu_ns'] / 1e6:.1f} ms cpu")
    if doc["source"] == "perf_event" and total["cycles"]:
        ipc = total["instructions"] / total["cycles"]
        lines.append(f" ({ipc:.2f} host IPC)")
    lines.append("")

    lines.append("## Hot phases")
    lines.append("")
    lines.append("| phase | cycles | % total | cpu ms | instructions "
                 "| cache misses | enters |")
    lines.append("|---|---:|---:|---:|---:|---:|---:|")
    phases = sorted(doc["phases"].items(),
                    key=lambda kv: (-kv[1]["cycles"], kv[0]))
    for name, c in phases:
        if c["cycles"] == 0 and c["enters"] == 0:
            continue
        lines.append(
            f"| {name} | {fmt_count(c['cycles'])} "
            f"| {fmt_pct(c['cycles'], total['cycles'])} "
            f"| {c['cpu_ns'] / 1e6:.2f} "
            f"| {fmt_count(c['instructions'])} "
            f"| {fmt_count(c['cache_misses'])} "
            f"| {fmt_count(c['enters'])} |")
    lines.append("")

    if doc["work"]:
        lines.append("## Work and throughput")
        lines.append("")
        lines.append("| work counter | units | rate gauge | per sec |")
        lines.append("|---|---:|---|---:|")
        rate_for = {
            "ops_encoded": "ops_encoded_per_sec",
            "blocks_simulated": "blocks_simulated_per_sec",
        }
        for name, units in sorted(doc["work"].items()):
            gauge = rate_for.get(name)
            if gauge is None and name.startswith("fetch."):
                gauge = name.replace(".blocks_simulated",
                                     ".blocks_per_sec")
            rate = doc["throughput"].get(gauge) if gauge else None
            rate_txt = f"{rate:,.0f}" if rate else "-"
            lines.append(f"| {name} | {fmt_count(units)} "
                         f"| {gauge or '-'} | {rate_txt} |")
        lines.append("")

    samples = doc["samples"]
    lines.append(f"Samples: {samples['taken']} taken, "
                 f"{samples['dropped']} dropped.")
    lines.append("")
    notes = degradation_notes(doc)
    if notes:
        lines.append("## Notes")
        lines.append("")
        for note in notes:
            lines.append(f"- {note}")
        lines.append("")
    lines.append(f"*(generated by tools/tepic_reports.py from "
                 f"`{path}`)*")
    return "\n".join(lines) + "\n"


# --- flamegraph ------------------------------------------------------


def parse_collapsed(path):
    """[(frames tuple, count)], total count."""
    stacks = []
    total = 0
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        usage_error(f"{path}: {e}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            usage_error(f"{path}:{lineno}: not a collapsed-stack "
                        f"line: {line[:60]!r}")
        stacks.append((tuple(stack.split(";")), int(count)))
        total += int(count)
    return stacks, total


class Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.children = {}


def build_tree(stacks):
    root = Node("all")
    for frames, count in stacks:
        root.value += count
        node = root
        for frame in frames:
            node = node.children.setdefault(frame, Node(frame))
            node.value += count
    return root


def frame_color(name, depth):
    """Deterministic warm palette (classic flamegraph look)."""
    h = 0
    for ch in name:
        h = (h * 31 + ord(ch)) & 0xFFFFFFFF
    r = 205 + (h % 50)
    g = 80 + ((h >> 8) % 110) + (depth * 3) % 20
    b = ((h >> 16) % 55)
    return f"rgb({min(r, 255)},{min(g, 255)},{b})"


def render_flamegraph(root, title, width=1200, row_height=16):
    """Self-contained SVG; x in sample-proportional coordinates."""
    rects = []
    max_depth = [0]

    def layout(node, x, depth):
        max_depth[0] = max(max_depth[0], depth)
        child_x = x
        for name in node.children:
            child = node.children[name]
            rects.append((child, child_x, depth + 1))
            layout(child, child_x, depth + 1)
            child_x += child.value
    layout(root, 0, 0)

    total = max(root.value, 1)
    scale = (width - 20) / total
    height = (max_depth[0] + 3) * row_height + 40
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-size="14">{svg_escape(title)}</text>',
    ]
    # Root bar spans everything.
    all_nodes = [(root, 0, 0)] + rects
    for node, x, depth in all_nodes:
        w = node.value * scale
        if w < 0.4:
            continue
        px = 10 + x * scale
        py = height - (depth + 1) * row_height - 10
        pct = 100.0 * node.value / total
        label = svg_escape(node.name)
        out.append(
            f'<g><title>{label} ({node.value} samples, '
            f'{pct:.1f}%)</title>'
            f'<rect x="{px:.1f}" y="{py}" width="{w:.1f}" '
            f'height="{row_height - 1}" '
            f'fill="{frame_color(node.name, depth)}" rx="1"/>')
        # ~6.2 px per glyph at font-size 11; clip to the box.
        max_chars = int(w / 6.2)
        if max_chars >= 3:
            text = node.name if len(node.name) <= max_chars \
                else node.name[:max_chars - 1] + "…"
            out.append(f'<text x="{px + 2:.1f}" '
                       f'y="{py + row_height - 4}">'
                       f'{svg_escape(text)}</text>')
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def flamegraph(collapsed, title):
    """(SVG text, stack count, sample count) for a collapsed file."""
    stacks, total = parse_collapsed(collapsed)
    if not stacks:
        print(f"{PROG}: {collapsed}: no samples (empty flamegraph "
              f"written)", file=sys.stderr)
    return render_flamegraph(build_tree(stacks), title), \
        len(stacks), total
