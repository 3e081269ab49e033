"""tepic-sched-v1: task-graph scheduling reports (the SCHED_*.json
files every bench binary and `tepicc --sched-report=` emit).

Validation re-derives the invariants the C++ recorder asserts:

  * the dependency graph is acyclic and every edge points at an
    earlier id (declaration order),
  * cache-hit tasks never ran; ran tasks have
    enqueue <= start <= finish,
  * per worker, busy intervals do not overlap, their durations sum to
    busy_ns, and ramp + busy + queue_empty + dep_stall tiles the
    worker's span of the build window exactly,
  * critical_path is a real dependency chain and its length equals
    the sum of its tasks' durations.

--compare covers the "structure" section: the task DAG (ids, labels,
kinds, edges, cache-hit flags) must not depend on --jobs. The
"timing" section is wall-clock data and exempt. Renders a Markdown
"why is this build slow" report and an SVG worker timeline (Gantt).
"""

from tepic_reports import (check_keys, check_nonneg_int, fmt_pct,
                           invariant_error, svg_escape, usage_error)

SCHEMA = "tepic-sched-v1"

STRUCT_TASK_KEYS = ("id", "label", "kind", "workload", "scheme",
                    "cache_hit", "deps")
TIMING_TASK_KEYS = ("id", "enqueue_ns", "start_ns", "finish_ns",
                    "ran", "worker")
IDLE_KEYS = ("ramp_ns", "queue_empty_ns", "dep_stall_ns")

# Deterministic fill palette for the Gantt, keyed by task kind.
KIND_COLORS = {
    "compile": "#4878cf",
    "base": "#6acc65",
    "byte": "#d65f5f",
    "stream": "#b47cc7",
    "full": "#c4ad66",
    "tailored": "#77bedb",
    "att": "#ee854a",
    "decoder": "#8c613c",
}
DEFAULT_COLOR = "#999999"


# --- validation ------------------------------------------------------


def check_schema(path, doc):
    """Shape checks (exit 2 on failure); returns (structure, timing)."""
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        usage_error(f"{path}: missing report 'name'")
    check_nonneg_int(path, "jobs", doc.get("jobs"))
    check_keys(path, "report", doc, ("structure", "timing"))

    s = doc["structure"]
    check_keys(path, "structure", s,
               ("task_count", "edge_count", "cache_hits", "acyclic",
                "tasks"))
    for key in ("task_count", "edge_count", "cache_hits"):
        check_nonneg_int(path, f"structure['{key}']", s[key])
    if not isinstance(s["tasks"], list):
        usage_error(f"{path}: structure['tasks'] is not an array")
    if len(s["tasks"]) != s["task_count"]:
        usage_error(f"{path}: structure task_count {s['task_count']} "
                    f"!= {len(s['tasks'])} tasks listed")
    for i, task in enumerate(s["tasks"]):
        check_keys(path, f"structure tasks[{i}]", task,
                   STRUCT_TASK_KEYS)
        if task["id"] != i:
            usage_error(f"{path}: structure tasks[{i}] has id "
                        f"{task['id']} (ids must be dense, in order)")
        if not isinstance(task["deps"], list):
            usage_error(f"{path}: structure tasks[{i}]['deps'] is "
                        f"not an array")

    t = doc["timing"]
    check_keys(path, "timing", t,
               ("window", "makespan_ns", "total_work_ns",
                "critical_path_ns", "critical_path", "speedup",
                "parallelism", "tasks", "workers"))
    check_keys(path, "timing window", t["window"],
               ("start_ns", "end_ns"))
    check_keys(path, "timing speedup", t["speedup"],
               ("achievable", "achieved"))
    check_keys(path, "timing parallelism", t["parallelism"],
               ("bucket_ns", "concurrency"))
    if len(t["tasks"]) != s["task_count"]:
        usage_error(f"{path}: timing lists {len(t['tasks'])} tasks, "
                    f"structure lists {s['task_count']}")
    for i, task in enumerate(t["tasks"]):
        check_keys(path, f"timing tasks[{i}]", task, TIMING_TASK_KEYS)
    for i, worker in enumerate(t["workers"]):
        check_keys(path, f"timing workers[{i}]", worker,
                   ("id", "start_ns", "end_ns", "busy_ns", "tasks",
                    "idle"))
        check_keys(path, f"timing workers[{i}]['idle']",
                   worker["idle"], IDLE_KEYS)
    return s, t


def check_invariants(path, structure, timing):
    """Semantic checks (exit 1 on failure) — the schema's promises."""
    tasks = structure["tasks"]
    n = len(tasks)

    edge_count = 0
    for task in tasks:
        for dep in task["deps"]:
            edge_count += 1
            if not isinstance(dep, int) or not 0 <= dep < n:
                invariant_error(f"{path}: task {task['id']} depends "
                                f"on unknown task {dep}")
            if dep >= task["id"]:
                invariant_error(
                    f"{path}: task {task['id']} depends on task "
                    f"{dep}: edges must point at earlier "
                    f"declarations")
    if edge_count != structure["edge_count"]:
        invariant_error(f"{path}: edge_count {structure['edge_count']}"
                        f" != {edge_count} edges listed")

    hits = sum(1 for task in tasks if task["cache_hit"])
    if hits != structure["cache_hits"]:
        invariant_error(f"{path}: cache_hits {structure['cache_hits']}"
                        f" != {hits} cache-hit tasks listed")

    # Kahn — dep < id already forbids cycles, but the field promises
    # the check, so run it against the recorded edges for real.
    indegree = [len(task["deps"]) for task in tasks]
    successors = [[] for _ in range(n)]
    for task in tasks:
        for dep in task["deps"]:
            successors[dep].append(task["id"])
    order = [i for i in range(n) if indegree[i] == 0]
    head = 0
    while head < len(order):
        for nxt in successors[order[head]]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)
        head += 1
    acyclic = len(order) == n
    if acyclic != structure["acyclic"]:
        invariant_error(f"{path}: structure says acyclic="
                        f"{structure['acyclic']}, graph says "
                        f"{acyclic}")
    if not acyclic:
        invariant_error(f"{path}: dependency graph has a cycle")

    ttasks = timing["tasks"]
    durations = {}
    for st, tt in zip(tasks, ttasks):
        if st["cache_hit"] and tt["ran"]:
            invariant_error(f"{path}: cache-hit task {st['id']} "
                            f"claims to have run")
        if tt["ran"]:
            if not (tt["enqueue_ns"] <= tt["start_ns"]
                    <= tt["finish_ns"]):
                invariant_error(
                    f"{path}: task {st['id']} violates enqueue <= "
                    f"start <= finish")
            durations[st["id"]] = tt["finish_ns"] - tt["start_ns"]
        elif tt["worker"] is not None:
            invariant_error(f"{path}: unran task {st['id']} has a "
                            f"worker")

    # The critical path is a real chain and its length is the sum of
    # its tasks' durations.
    chain = timing["critical_path"]
    for a, b in zip(chain, chain[1:]):
        if a not in tasks[b]["deps"]:
            invariant_error(f"{path}: critical path step {a} -> {b} "
                            f"is not a dependency edge")
    chain_ns = sum(durations.get(i, 0) for i in chain)
    if chain and chain_ns != timing["critical_path_ns"]:
        invariant_error(
            f"{path}: critical_path_ns {timing['critical_path_ns']} "
            f"!= {chain_ns} (sum of chain durations)")

    # Per-worker timelines: busy intervals don't overlap, sum to
    # busy_ns, and the idle split tiles the worker's window span.
    window_start = timing["window"]["start_ns"]
    by_worker = {}
    for st, tt in zip(tasks, ttasks):
        if tt["ran"]:
            by_worker.setdefault(tt["worker"], []).append(
                (tt["start_ns"], tt["finish_ns"], st["id"]))
    for worker in timing["workers"]:
        wid = worker["id"]
        busy = sorted(by_worker.get(wid, []))
        for (_, f0, id0), (s1, _, id1) in zip(busy, busy[1:]):
            if s1 < f0:
                invariant_error(
                    f"{path}: worker {wid} runs tasks {id0} and "
                    f"{id1} at once")
        busy_ns = sum(f - s for s, f, _ in busy)
        if busy_ns != worker["busy_ns"]:
            invariant_error(
                f"{path}: worker {wid} busy_ns {worker['busy_ns']} "
                f"!= {busy_ns} (sum of its task durations)")
        if len(busy) != worker["tasks"]:
            invariant_error(
                f"{path}: worker {wid} claims {worker['tasks']} "
                f"tasks, ran {len(busy)}")
        idle = worker["idle"]
        tiled = (idle["ramp_ns"] + idle["queue_empty_ns"] +
                 idle["dep_stall_ns"] + worker["busy_ns"])
        span = worker["end_ns"] - window_start
        if tiled != span:
            invariant_error(
                f"{path}: worker {wid} timeline does not tile: ramp "
                f"+ busy + queue_empty + dep_stall = {tiled} != "
                f"{span} (end - window start)")

    if by_worker and not timing["workers"]:
        invariant_error(f"{path}: tasks ran but no workers listed")


def validate(path, doc):
    check_invariants(path, *check_schema(path, doc))


def summary(doc):
    structure, timing = doc["structure"], doc["timing"]
    speedup = timing["speedup"]
    return (f"{structure['task_count']} tasks, "
            f"{structure['edge_count']} edges, acyclic; critical "
            f"path {fmt_ms(timing['critical_path_ns'])} ms, "
            f"speedup {speedup['achieved']:.2f}x of "
            f"{speedup['achievable']:.2f}x achievable")


def comparable(doc):
    return {"structure": doc["structure"]}


# --- Markdown "why is this build slow" report ------------------------


def fmt_ms(ns):
    return f"{ns / 1e6:.2f}"


def render_md(path, doc):
    structure, timing = doc["structure"], doc["timing"]
    tasks = structure["tasks"]
    ttasks = timing["tasks"]
    makespan = timing["makespan_ns"]
    speedup = timing["speedup"]

    lines = [f"# Build schedule: {doc['name']}", ""]
    lines.append(
        f"{structure['task_count']} tasks "
        f"({structure['cache_hits']} cache hits), "
        f"{structure['edge_count']} dependency edges, "
        f"jobs={doc['jobs']}. Makespan {fmt_ms(makespan)} ms for "
        f"{fmt_ms(timing['total_work_ns'])} ms of work: achieved "
        f"speedup **{speedup['achieved']:.2f}x** of an achievable "
        f"**{speedup['achievable']:.2f}x** (critical path "
        f"{fmt_ms(timing['critical_path_ns'])} ms, "
        f"{fmt_pct(timing['critical_path_ns'], makespan)} of the "
        f"wall clock).")
    lines.append("")

    lines.append("## Critical path")
    lines.append("")
    lines.append("The longest dependency chain — the floor on build "
                 "time no worker count can beat:")
    lines.append("")
    lines.append("| # | task | kind | duration ms | % of path |")
    lines.append("|---:|---|---|---:|---:|")
    for step, tid in enumerate(timing["critical_path"]):
        dur = (ttasks[tid]["finish_ns"] - ttasks[tid]["start_ns"]
               if ttasks[tid]["ran"] else 0)
        lines.append(
            f"| {step} | {tasks[tid]['label']} "
            f"| {tasks[tid]['kind']} | {fmt_ms(dur)} "
            f"| {fmt_pct(dur, timing['critical_path_ns'])} |")
    lines.append("")

    lines.append("## Worker utilization")
    lines.append("")
    lines.append("| worker | tasks | busy ms | busy % | ramp ms "
                 "| dep stall ms | queue empty ms |")
    lines.append("|---|---:|---:|---:|---:|---:|---:|")
    for w in timing["workers"]:
        span = w["end_ns"] - timing["window"]["start_ns"]
        idle = w["idle"]
        lines.append(
            f"| {w['id']} | {w['tasks']} | {fmt_ms(w['busy_ns'])} "
            f"| {fmt_pct(w['busy_ns'], span)} "
            f"| {fmt_ms(idle['ramp_ns'])} "
            f"| {fmt_ms(idle['dep_stall_ns'])} "
            f"| {fmt_ms(idle['queue_empty_ns'])} |")
    lines.append("")

    stall = sum(w["idle"]["dep_stall_ns"] for w in timing["workers"])
    empty = sum(w["idle"]["queue_empty_ns"]
                for w in timing["workers"])
    verdict = []
    if speedup["achievable"] > 0 and \
            speedup["achieved"] < 0.8 * speedup["achievable"]:
        verdict.append(
            f"the schedule left "
            f"{speedup['achievable'] - speedup['achieved']:.2f}x on "
            f"the table")
    else:
        verdict.append("the schedule is close to the DAG's limit")
    if stall > empty:
        verdict.append("idle time is dominated by dependency stalls "
                       "— shortening the critical path (the chain "
                       "above) is what would speed this build up")
    elif empty > 0:
        verdict.append("idle time is dominated by an empty queue — "
                       "there is simply not enough work for the "
                       "workers; more workloads (or fewer jobs) "
                       "would raise utilization")
    lines.append(f"**Verdict:** {'; '.join(verdict)}.")
    lines.append("")
    lines.append(f"*(generated by tools/tepic_reports.py from "
                 f"`{path}`)*")
    return "\n".join(lines) + "\n"


# --- SVG Gantt -------------------------------------------------------


def render_svg(doc, width=1200, row_height=24):
    """Worker-per-row timeline; critical-path tasks get a red edge."""
    structure, timing = doc["structure"], doc["timing"]
    tasks = structure["tasks"]
    ttasks = timing["tasks"]
    window_start = timing["window"]["start_ns"]
    makespan = max(timing["makespan_ns"], 1)
    critical = set(timing["critical_path"])

    workers = [w["id"] for w in timing["workers"]]
    rows = {wid: i for i, wid in enumerate(workers)}
    label_w = 60
    scale = (width - label_w - 20) / makespan
    height = len(workers) * row_height + 60

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-size="14">{svg_escape(doc["name"])} — '
        f'{fmt_ms(timing["makespan_ns"])} ms, '
        f'{timing["speedup"]["achieved"]:.2f}x of '
        f'{timing["speedup"]["achievable"]:.2f}x achievable</text>',
    ]
    for wid, row in rows.items():
        y = 40 + row * row_height
        out.append(f'<text x="8" y="{y + row_height - 9}">'
                   f'{svg_escape(str(wid))}</text>')
        out.append(f'<line x1="{label_w}" y1="{y + row_height - 1}" '
                   f'x2="{width - 10}" y2="{y + row_height - 1}" '
                   f'stroke="#ddd"/>')
    for st, tt in zip(tasks, ttasks):
        if not tt["ran"] or tt["worker"] not in rows:
            continue
        x = label_w + (tt["start_ns"] - window_start) * scale
        w = max((tt["finish_ns"] - tt["start_ns"]) * scale, 0.8)
        y = 40 + rows[tt["worker"]] * row_height
        color = KIND_COLORS.get(st["kind"], DEFAULT_COLOR)
        stroke = ' stroke="#d62728" stroke-width="1.5"' \
            if st["id"] in critical else ''
        dur = fmt_ms(tt["finish_ns"] - tt["start_ns"])
        out.append(
            f'<g><title>{svg_escape(st["label"])} ({dur} ms'
            f'{", critical path" if st["id"] in critical else ""})'
            f'</title>'
            f'<rect x="{x:.1f}" y="{y + 2}" width="{w:.1f}" '
            f'height="{row_height - 6}" fill="{color}"{stroke} '
            f'rx="2"/></g>')
    # Kind legend along the bottom.
    lx = label_w
    ly = height - 8
    for kind, color in KIND_COLORS.items():
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="10" '
                   f'height="10" fill="{color}"/>')
        out.append(f'<text x="{lx + 13}" y="{ly}">{kind}</text>')
        lx += 13 + 7 * len(kind) + 16
    out.append('</svg>')
    return "\n".join(out) + "\n"


