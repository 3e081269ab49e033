#!/usr/bin/env python3
"""Validate, compare and render every tepic JSON report.

The report kind is read from the document's "schema" field; Chrome
trace files (the --trace= output) carry no schema id and are
recognised by their "traceEvents" array. One module per kind lives in
tools/reports/:

  tepic-prof-v1     PROF_*.json    host profile: phases tile the total
  tepic-sched-v1    SCHED_*.json   task-graph schedule, critical path
  tepic-cache-v1    CACHE_*.json   3C miss classes, reuse, heatmaps
  tepic-hot-v1      HOT_*.json     block hotness, branch sites, phases
  tepic-sweep-v1    SWEEP_*.json   design-space sweep, Pareto front
  tepic-metrics-v1  BENCH_*.json and --metrics= snapshots
  (Chrome trace)    --trace= output

Usage:
  tepic_reports.py REPORT...          validate every REPORT (kinds may
                                      be mixed) and print a summary
  tepic_reports.py REPORT --md FILE   also write the first REPORT's
                                      Markdown report (prof, sched,
                                      cache, hot, sweep)
  tepic_reports.py REPORT --svg FILE  also write the first REPORT's
                                      figure: sched Gantt, cache
                                      heatmap, hot coverage curve or
                                      sweep Pareto scatter
  tepic_reports.py HOT --md FILE --size SIZE
                                      join the per-function bits of a
                                      tepic-size-v1 report into the
                                      hot Markdown
  tepic_reports.py --flamegraph COLLAPSED --svg FILE [--title T]
                                      render a FlameGraph SVG from
                                      collapsed-stack text (the
                                      --prof-collapse= output)
  tepic_reports.py --compare A B      require two reports of one kind
                                      to agree on their determinism
                                      contract, which must not depend
                                      on --jobs: the "structure"
                                      section (sched, cache, hot,
                                      sweep); phase and throughput key
                                      sets plus exact work counters
                                      (prof); counters, histograms and
                                      gauges with wall-clock and rate
                                      gauge values masked (metrics).
                                      The first differing JSON path is
                                      named.

Exit codes: 0 = ok (profile degradation is a note, not an error),
1 = invariant violation or --compare mismatch, 2 = usage or schema
error (including a file that is not a JSON object, an unknown schema
and a --compare across kinds). Only the standard library is used.
"""

import argparse
import json
import os
import sys

# Diagnostics carry the running script's name, so the tools that
# import load/usage_error from here keep their own prefix.
PROG = os.path.splitext(os.path.basename(sys.argv[0]))[0]


def usage_error(msg):
    print(f"{PROG}: error: {msg}", file=sys.stderr)
    sys.exit(2)


def invariant_error(msg):
    print(f"{PROG}: invariant violated: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    """The JSON object stored at `path`; anything else exits 2."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        usage_error(f"{path}: {e}")
    if not isinstance(doc, dict):
        usage_error(f"{path}: not a JSON object")
    return doc


def write_file(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        usage_error(f"{path}: {e}")


# --- shared schema checks (exit 2) -----------------------------------


def check_keys(path, what, obj, keys):
    if not isinstance(obj, dict):
        usage_error(f"{path}: {what} is not an object")
    for key in keys:
        if key not in obj:
            usage_error(f"{path}: {what} is missing '{key}'")


def check_nonneg_int(path, what, value):
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < 0:
        usage_error(f"{path}: {what} is not a non-negative integer")


def check_hist(path, what, hist):
    check_keys(path, what, hist, ("total", "overflow", "bins"))
    check_nonneg_int(path, f"{what}['total']", hist["total"])
    check_nonneg_int(path, f"{what}['overflow']", hist["overflow"])
    if not isinstance(hist["bins"], list):
        usage_error(f"{path}: {what}['bins'] is not an array")
    for i, bin_ in enumerate(hist["bins"]):
        if not (isinstance(bin_, list) and len(bin_) == 2):
            usage_error(f"{path}: {what}['bins'][{i}] is not a "
                        f"[key, weight] pair")
        check_nonneg_int(path, f"{what}['bins'][{i}][1]", bin_[1])


def hist_mass(hist):
    return sum(w for _, w in hist["bins"]) + hist["overflow"]


# --- shared rendering helpers ----------------------------------------


def fmt_pct(num, den):
    return f"{100.0 * num / den:.1f}%" if den else "-"


def svg_escape(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


# --- dispatch --------------------------------------------------------


def kinds():
    """schema id -> report module. Imported on first use: the report
    modules import their helpers from this one."""
    from reports import cache, hot, metrics, prof, sched, sweep
    return {m.SCHEMA: m for m in (prof, sched, cache, hot, sweep,
                                  metrics)}


def kind_of(path, doc):
    if "schema" not in doc and isinstance(doc.get("traceEvents"), list):
        from reports import trace
        return trace
    known = kinds()
    schema = doc.get("schema")
    if schema is None:
        usage_error(f"{path}: missing 'schema' field "
                    f"(expected one of {sorted(known)})")
    if schema not in known:
        usage_error(f"{path}: unknown schema version {schema!r} "
                    f"(supported: {sorted(known)})")
    return known[schema]


# --- determinism compare ---------------------------------------------


def first_divergence(a, b, crumb=""):
    """Depth-first search for the first differing JSON path: a
    (path, detail) pair, or None when a and b are identical."""
    if type(a) is not type(b):
        return crumb, f"{a!r} vs {b!r}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{crumb}.{key}" if crumb else str(key)
            if key not in a:
                return where, "missing on the left"
            if key not in b:
                return where, "missing on the right"
            hit = first_divergence(a[key], b[key], where)
            if hit:
                return hit
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return crumb, f"{len(a)} vs {len(b)} elements"
        for i, (va, vb) in enumerate(zip(a, b)):
            hit = first_divergence(va, vb, f"{crumb}[{i}]")
            if hit:
                return hit
        return None
    if a != b:
        return crumb, f"{a!r} vs {b!r}"
    return None


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    kind = kind_of(path_a, a)
    if kind_of(path_b, b) is not kind:
        usage_error(f"--compare needs two reports of one kind: "
                    f"{path_a} is {a.get('schema')!r}, {path_b} is "
                    f"{b.get('schema')!r}")
    if kind.comparable is None:
        usage_error(f"{path_a}: {kind.SCHEMA} files have no "
                    f"determinism contract to compare")
    for path, doc in ((path_a, a), (path_b, b)):
        kind.validate(path, doc)
    proj_a = kind.comparable(a)
    hit = first_divergence(proj_a, kind.comparable(b))
    if hit:
        where, detail = hit
        invariant_error(
            f"{path_a} and {path_b} disagree at {where}: {detail} — "
            f"the result must not depend on --jobs, so every compared "
            f"value must be identical for any --jobs value")
    print(f"{PROG}: {path_a} and {path_b} have identical "
          f"{' + '.join(proj_a)} ({kind.summary(a)})")


# --- entry point -----------------------------------------------------


def render(kind, path, doc, md, svg, size_doc):
    if md:
        if not hasattr(kind, "render_md"):
            usage_error(f"{path}: {kind.SCHEMA} has no --md report")
        extra = (size_doc,) if size_doc else ()
        write_file(md, kind.render_md(path, doc, *extra))
        print(f"{PROG}: wrote {md}")
    if svg:
        if not hasattr(kind, "render_svg"):
            usage_error(f"{path}: {kind.SCHEMA} has no --svg figure")
        write_file(svg, kind.render_svg(doc))
        print(f"{PROG}: wrote {svg}")


def main(argv):
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Validate, compare and render tepic JSON reports.")
    parser.add_argument("reports", nargs="*", metavar="REPORT",
                        help="report files to validate (kinds may be "
                             "mixed)")
    parser.add_argument("--md", metavar="FILE",
                        help="write the first REPORT's Markdown report")
    parser.add_argument("--svg", metavar="FILE",
                        help="write the first REPORT's figure, or the "
                             "--flamegraph SVG")
    parser.add_argument("--size", metavar="SIZE",
                        help="tepic-size-v1 report joined into a hot "
                             "report's --md")
    parser.add_argument("--flamegraph", metavar="COLLAPSED",
                        help="collapsed-stack input (--prof-collapse= "
                             "output) rendered to --svg")
    parser.add_argument("--title", default="tepic host profile",
                        help="flamegraph title")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="check two reports of one kind for "
                             "determinism-contract agreement")
    args = parser.parse_args(argv)

    if args.compare:
        if args.reports or args.md or args.svg or args.size \
                or args.flamegraph:
            usage_error("--compare takes no other inputs")
        compare(*args.compare)
        return

    svg = args.svg
    if args.flamegraph:
        from reports import prof
        if svg is None:
            usage_error("--flamegraph requires --svg OUT")
        text, stacks, samples = prof.flamegraph(args.flamegraph,
                                                args.title)
        write_file(svg, text)
        print(f"{PROG}: wrote {svg} ({stacks} stacks, {samples} "
              f"samples)")
        if not args.reports:
            return
        svg = None

    if not args.reports:
        usage_error("no report given (see the module docstring)")
    size_doc = None
    if args.size:
        from reports import hot
        size_doc = load(args.size)
        if size_doc.get("schema") != hot.SIZE_SCHEMA:
            usage_error(f"{args.size}: schema "
                        f"{size_doc.get('schema')!r} is not "
                        f"{hot.SIZE_SCHEMA!r}")
    for i, path in enumerate(args.reports):
        doc = load(path)
        kind = kind_of(path, doc)
        notes = kind.validate(path, doc) or ()
        print(f"{PROG}: {path}: ok ({kind.summary(doc)})")
        for note in notes:
            print(f"{PROG}:   note: {note}")
        if i == 0:
            if size_doc and kind is not hot:
                usage_error(f"{path}: --size joins into {hot.SCHEMA} "
                            f"reports only")
            render(kind, path, doc, args.md, svg, size_doc)


if __name__ == "__main__":
    main(sys.argv[1:])
