#include "support/sched.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace tepic::support::sched {

namespace {

/** Raw attach/detach observations for one pool worker. */
struct WorkerEvent
{
    std::uint64_t attachNs = 0;
    std::uint64_t detachNs = 0;
    bool attached = false;  ///< attach seen during this session
    bool detached = false;
};

struct Recorder
{
    std::mutex mutex;
    std::vector<TaskRecord> tasks;
    // Indexed by pool worker id; small and dense in practice.
    std::vector<WorkerEvent> workerEvents;
    std::chrono::steady_clock::time_point epoch;
    unsigned jobs = 0;
    std::atomic<bool> enabled{false};
    bool everStarted = false;
};

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

thread_local std::uint32_t t_worker = kMainWorker;

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - recorder().epoch)
            .count());
}

WorkerEvent &
workerSlot(Recorder &r, std::uint32_t worker)
{
    if (worker >= r.workerEvents.size())
        r.workerEvents.resize(worker + 1);
    return r.workerEvents[worker];
}

// ---------------------------------------------------------------------------
// Analysis helpers.

/**
 * Piecewise-constant count of declared-but-unstarted tasks over time:
 * +1 at enqueue, -1 at start (tasks that never start stay counted to
 * the end). Drives the dependency-stall vs queue-empty attribution —
 * a worker idle while undone work exists is stalled on dependencies
 * (dep edges or the engine's phase barriers), a worker idle with
 * nothing left to hand out sees an empty queue.
 */
class OutstandingSweep
{
  public:
    explicit
    OutstandingSweep(const std::vector<TaskRecord> &tasks)
    {
        std::vector<std::pair<std::uint64_t, int>> deltas;
        for (const auto &t : tasks) {
            if (t.decl.cacheHit)
                continue;
            deltas.emplace_back(t.enqueueNs, +1);
            if (t.ran)
                deltas.emplace_back(t.startNs, -1);
        }
        std::sort(deltas.begin(), deltas.end());
        std::uint64_t prev = 0;
        int count = 0;
        for (const auto &[ts, delta] : deltas) {
            if (ts != prev) {
                times_.push_back(prev);
                counts_.push_back(count);
                prev = ts;
            }
            count += delta;
        }
        times_.push_back(prev);
        counts_.push_back(count);
    }

    /**
     * Split the idle interval [a, b) into (depStall, queueEmpty)
     * nanoseconds; the two always tile b - a exactly.
     */
    std::pair<std::uint64_t, std::uint64_t>
    attribute(std::uint64_t a, std::uint64_t b) const
    {
        std::uint64_t stall = 0;
        std::uint64_t empty = 0;
        if (b <= a)
            return {0, 0};
        // Segment i covers [times_[i], times_[i+1]) at counts_[i].
        std::size_t i =
            std::size_t(std::upper_bound(times_.begin(), times_.end(),
                                         a) -
                        times_.begin());
        i = i ? i - 1 : 0;
        std::uint64_t cursor = a;
        while (cursor < b) {
            const std::uint64_t seg_end =
                i + 1 < times_.size() ? std::min(times_[i + 1], b)
                                      : b;
            const std::uint64_t span = seg_end - cursor;
            if (counts_[i] > 0)
                stall += span;
            else
                empty += span;
            cursor = seg_end;
            ++i;
        }
        return {stall, empty};
    }

  private:
    std::vector<std::uint64_t> times_;
    std::vector<int> counts_;
};

std::string
workerName(std::uint32_t worker)
{
    if (worker == kMainWorker)
        return "main";
    return "w" + std::to_string(worker);
}

} // namespace

// ---------------------------------------------------------------------------
// Recording.

bool
enabled()
{
    return recorder().enabled.load(std::memory_order_relaxed);
}

void
startSession(unsigned jobs)
{
    auto &r = recorder();
    r.enabled.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.tasks.clear();
        r.workerEvents.clear();
        r.epoch = std::chrono::steady_clock::now();
        r.jobs = jobs;
        r.everStarted = true;
    }
    r.enabled.store(true, std::memory_order_release);
}

void
endSession()
{
    recorder().enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t
declareTask(TaskDecl decl)
{
    if (!enabled())
        return kNoTask;
    auto &r = recorder();
    const std::uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(r.mutex);
    TaskRecord record;
    record.id = r.tasks.size();
    record.decl = std::move(decl);
    record.enqueueNs = ts;
    // Sentinel deps come from ids handed out while recording was
    // disabled (a session started mid-build); drop them. A real
    // forward reference would make the graph ill-formed.
    std::erase(record.decl.deps, kNoTask);
    for (std::uint64_t dep : record.decl.deps) {
        TEPIC_ASSERT(dep < record.id,
                     "sched task depends on a not-yet-declared task");
    }
    r.tasks.push_back(std::move(record));
    return r.tasks.back().id;
}

void
taskStarted(std::uint64_t id)
{
    if (!enabled())
        return;
    auto &r = recorder();
    const std::uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (id >= r.tasks.size())
        return;
    auto &t = r.tasks[id];
    t.startNs = ts;
    t.worker = t_worker;
}

void
taskFinished(std::uint64_t id)
{
    if (!enabled())
        return;
    auto &r = recorder();
    const std::uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (id >= r.tasks.size())
        return;
    auto &t = r.tasks[id];
    t.finishNs = ts;
    t.ran = true;
}

void
workerAttach(std::uint32_t worker)
{
    t_worker = worker;
    if (!enabled())
        return;
    auto &r = recorder();
    const std::uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = workerSlot(r, worker);
    slot.attachNs = ts;
    slot.attached = true;
}

void
workerDetach()
{
    const std::uint32_t worker = t_worker;
    t_worker = kMainWorker;
    if (worker == kMainWorker || !enabled())
        return;
    auto &r = recorder();
    const std::uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto &slot = workerSlot(r, worker);
    slot.detachNs = ts;
    slot.detached = true;
}

std::uint32_t
currentWorker()
{
    return t_worker;
}

void
resetForTest()
{
    auto &r = recorder();
    r.enabled.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(r.mutex);
    r.tasks.clear();
    r.workerEvents.clear();
    r.jobs = 0;
    r.everStarted = false;
}

// ---------------------------------------------------------------------------
// Analysis.

Analysis
analyze()
{
    Analysis out;
    std::vector<WorkerEvent> worker_events;
    {
        auto &r = recorder();
        std::lock_guard<std::mutex> lock(r.mutex);
        out.jobs = r.jobs;
        out.tasks = r.tasks;
        worker_events = r.workerEvents;
    }

    out.cacheHits = 0;
    out.edgeCount = 0;
    for (const auto &t : out.tasks) {
        out.edgeCount += t.decl.deps.size();
        if (t.decl.cacheHit)
            ++out.cacheHits;
    }

    // Build window: the span between the first declaration and the
    // last finish of tasks that actually ran.
    bool any_ran = false;
    std::uint64_t window_start = 0;
    std::uint64_t window_end = 0;
    for (const auto &t : out.tasks) {
        if (!t.ran)
            continue;
        if (!any_ran) {
            window_start = t.enqueueNs;
            window_end = t.finishNs;
            any_ran = true;
        } else {
            window_start = std::min(window_start, t.enqueueNs);
            window_end = std::max(window_end, t.finishNs);
        }
        out.totalWorkNs += t.durationNs();
    }
    out.windowStartNs = window_start;
    out.windowEndNs = window_end;
    out.makespanNs = window_end - window_start;

    // Acyclicity (Kahn). Declaration order already forbids forward
    // edges, but the report promises the check, so run it for real.
    const std::size_t n = out.tasks.size();
    std::vector<std::uint64_t> indegree(n, 0);
    std::vector<std::vector<std::uint64_t>> successors(n);
    for (const auto &t : out.tasks) {
        for (std::uint64_t dep : t.decl.deps) {
            if (dep >= n) {
                out.acyclic = false;
                continue;
            }
            successors[dep].push_back(t.id);
            ++indegree[t.id];
        }
    }
    std::vector<std::uint64_t> topo;
    topo.reserve(n);
    for (std::uint64_t id = 0; id < n; ++id)
        if (indegree[id] == 0)
            topo.push_back(id);
    for (std::size_t head = 0; head < topo.size(); ++head) {
        for (std::uint64_t next : successors[topo[head]])
            if (--indegree[next] == 0)
                topo.push_back(next);
    }
    if (topo.size() != n)
        out.acyclic = false;

    // Critical path: duration-weighted longest chain, ties broken
    // toward the smaller id so the reported chain is stable.
    if (out.acyclic && n > 0) {
        std::vector<std::uint64_t> dist(n, 0);
        std::vector<std::uint64_t> parent(n, ~std::uint64_t(0));
        for (std::uint64_t id : topo) {
            std::uint64_t best = 0;
            std::uint64_t best_parent = ~std::uint64_t(0);
            for (std::uint64_t dep : out.tasks[id].decl.deps) {
                if (dist[dep] > best ||
                    (dist[dep] == best && dep < best_parent)) {
                    best = dist[dep];
                    best_parent = dep;
                }
            }
            dist[id] = best + out.tasks[id].durationNs();
            parent[id] = best_parent;
        }
        std::uint64_t tail = 0;
        for (std::uint64_t id = 1; id < n; ++id)
            if (dist[id] > dist[tail])
                tail = id;
        out.criticalPathNs = dist[tail];
        for (std::uint64_t id = tail; id != ~std::uint64_t(0);
             id = parent[id]) {
            out.criticalPath.push_back(id);
        }
        std::reverse(out.criticalPath.begin(),
                     out.criticalPath.end());
    }

    if (out.makespanNs > 0) {
        out.achievedSpeedup =
            double(out.totalWorkNs) / double(out.makespanNs);
    }
    if (out.criticalPathNs > 0) {
        out.achievableSpeedup =
            double(out.totalWorkNs) / double(out.criticalPathNs);
    }

    // Time-bucketed concurrency profile across the build window.
    if (out.makespanNs > 0) {
        const std::size_t buckets =
            std::size_t(std::min<std::uint64_t>(64, out.makespanNs));
        out.bucketNs = (out.makespanNs + buckets - 1) / buckets;
        out.concurrency.assign(
            std::size_t((out.makespanNs + out.bucketNs - 1) /
                        out.bucketNs),
            0.0);
        for (const auto &t : out.tasks) {
            if (!t.ran || t.durationNs() == 0)
                continue;
            const std::uint64_t s = t.startNs - window_start;
            const std::uint64_t f = t.finishNs - window_start;
            for (std::size_t b = s / out.bucketNs;
                 b < out.concurrency.size(); ++b) {
                const std::uint64_t b0 = b * out.bucketNs;
                const std::uint64_t b1 = b0 + out.bucketNs;
                if (b0 >= f)
                    break;
                const std::uint64_t overlap =
                    std::min(f, b1) - std::max(s, b0);
                out.concurrency[b] +=
                    double(overlap) / double(out.bucketNs);
            }
        }
    }

    // Per-worker timelines. Workers come from attach events plus any
    // worker a task reported (covers pools spawned before the session
    // started, whose attach went unrecorded).
    std::set<std::uint32_t> worker_ids;
    for (std::uint32_t w = 0; w < worker_events.size(); ++w)
        if (worker_events[w].attached)
            worker_ids.insert(w);
    bool main_ran = false;
    for (const auto &t : out.tasks) {
        if (!t.ran)
            continue;
        if (t.worker == kMainWorker)
            main_ran = true;
        else
            worker_ids.insert(t.worker);
    }

    const OutstandingSweep sweep(out.tasks);
    const auto clamp = [&](std::uint64_t ts) {
        return std::min(std::max(ts, window_start), window_end);
    };
    const auto summarize = [&](std::uint32_t worker,
                               std::uint64_t attach,
                               std::uint64_t detach) {
        WorkerSummary w;
        w.worker = worker;
        w.name = workerName(worker);
        w.startNs = clamp(attach);
        w.endNs = std::max(clamp(detach), w.startNs);

        std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
        for (const auto &t : out.tasks) {
            if (t.ran && t.worker == worker) {
                busy.emplace_back(t.startNs, t.finishNs);
                w.busyNs += t.durationNs();
                ++w.tasksRun;
            }
        }
        std::sort(busy.begin(), busy.end());
        if (!busy.empty()) {
            w.startNs = std::min(w.startNs, busy.front().first);
            w.endNs = std::max(w.endNs, busy.back().second);
        }
        w.rampNs = w.startNs - window_start;
        std::uint64_t cursor = w.startNs;
        for (const auto &[s, f] : busy) {
            const auto [stall, empty] = sweep.attribute(cursor, s);
            w.depStallNs += stall;
            w.queueEmptyNs += empty;
            cursor = std::max(cursor, f);
        }
        const auto [stall, empty] = sweep.attribute(cursor, w.endNs);
        w.depStallNs += stall;
        w.queueEmptyNs += empty;
        TEPIC_ASSERT(w.rampNs + w.busyNs + w.queueEmptyNs +
                             w.depStallNs ==
                         w.endNs - window_start,
                     "sched worker timeline does not tile");
        return w;
    };

    if (main_ran)
        out.workers.push_back(
            summarize(kMainWorker, window_start, window_end));
    for (std::uint32_t w : worker_ids) {
        const bool known = w < worker_events.size() &&
                           worker_events[w].attached;
        const std::uint64_t attach =
            known ? worker_events[w].attachNs : window_start;
        const std::uint64_t detach =
            (known && worker_events[w].detached)
                ? worker_events[w].detachNs
                : window_end;
        out.workers.push_back(summarize(w, attach, detach));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Report.

std::string
reportJson(const std::string &name)
{
    const Analysis a = analyze();

    JsonWriter json;
    json.object();
    json.key("schema").value("tepic-sched-v1");
    json.key("name").value(name);
    json.key("jobs").value(a.jobs);

    // --- structure: exact-gated across --jobs -------------------------
    json.key("structure").object();
    json.key("task_count").value(a.tasks.size());
    json.key("edge_count").value(a.edgeCount);
    json.key("cache_hits").value(a.cacheHits);
    json.key("acyclic").value(a.acyclic);
    json.key("tasks").array();
    for (const TaskRecord &t : a.tasks) {
        json.object(JsonWriter::kInline);
        json.key("id").value(t.id);
        json.key("label").value(t.decl.label);
        json.key("kind").value(t.decl.kind);
        json.key("workload").value(t.decl.workload);
        json.key("scheme").value(t.decl.scheme);
        json.key("cache_hit").value(t.decl.cacheHit);
        json.key("deps").array(JsonWriter::kInline);
        for (const auto dep : t.decl.deps)
            json.value(dep);
        json.end().end();
    }
    json.end().end();

    // --- timing: wall-clock data, band-gated only ---------------------
    json.key("timing").object();
    json.key("window").object(JsonWriter::kInline);
    json.key("start_ns").value(a.windowStartNs);
    json.key("end_ns").value(a.windowEndNs);
    json.end();
    json.key("makespan_ns").value(a.makespanNs);
    json.key("total_work_ns").value(a.totalWorkNs);
    json.key("critical_path_ns").value(a.criticalPathNs);
    json.key("critical_path").array(JsonWriter::kInline);
    for (const auto id : a.criticalPath)
        json.value(id);
    json.end();
    json.key("speedup").object(JsonWriter::kInline);
    json.key("achievable").value(a.achievableSpeedup);
    json.key("achieved").value(a.achievedSpeedup);
    json.end();
    json.key("parallelism").object(JsonWriter::kInline);
    json.key("bucket_ns").value(a.bucketNs);
    json.key("concurrency").array(JsonWriter::kInline);
    for (const double level : a.concurrency)
        json.value(level);
    json.end().end();

    json.key("tasks").array();
    for (const TaskRecord &t : a.tasks) {
        json.object(JsonWriter::kInline);
        json.key("id").value(t.id);
        json.key("enqueue_ns").value(t.enqueueNs);
        json.key("start_ns").value(t.startNs);
        json.key("finish_ns").value(t.finishNs);
        json.key("ran").value(t.ran);
        json.key("worker");
        if (!t.ran || t.worker == kNoWorker)
            json.value(nullptr);
        else
            json.value(workerName(t.worker));
        json.end();
    }
    json.end();

    json.key("workers").array();
    for (const WorkerSummary &w : a.workers) {
        json.object(JsonWriter::kInline);
        json.key("id").value(w.name);
        json.key("start_ns").value(w.startNs);
        json.key("end_ns").value(w.endNs);
        json.key("busy_ns").value(w.busyNs);
        json.key("tasks").value(w.tasksRun);
        json.key("idle").object(JsonWriter::kInline);
        json.key("ramp_ns").value(w.rampNs);
        json.key("queue_empty_ns").value(w.queueEmptyNs);
        json.key("dep_stall_ns").value(w.depStallNs);
        json.end().end();
    }
    return json.end().end().end().take();
}

void
exportMetricsTo(MetricsRegistry &metrics)
{
    {
        auto &r = recorder();
        std::lock_guard<std::mutex> lock(r.mutex);
        if (!r.everStarted)
            return;
    }
    const Analysis a = analyze();
    metrics.addCounter("sched.tasks", a.tasks.size());
    metrics.addCounter("sched.edges", a.edgeCount);
    metrics.addCounter("sched.cache_hits", a.cacheHits);
    std::map<std::string, std::uint64_t> by_kind;
    for (const auto &t : a.tasks)
        ++by_kind[t.decl.kind];
    for (const auto &[kind, count] : by_kind)
        metrics.addCounter("sched.tasks." + kind, count);
}

} // namespace tepic::support::sched
