/**
 * @file
 * Task-graph scheduling observability for the artifact engine.
 *
 * The engine declares every unit of scheduled work as a *task* —
 * compile+emulate stages, per-scheme image builds, ATT and decoder
 * pre-warm tasks, and cache hits (zero-duration records) — each with
 * its dependency edges, and runs each task body inside a
 * support::Scope (scope.hh) given the task's id, so the recorder sees
 * enqueue/start/finish timestamps and the worker that ran it (the
 * ThreadPool tags its workers via workerAttach()). From
 * that event stream analyze() reconstructs the build DAG and answers
 * "why didn't --jobs=8 run 8x faster?":
 *
 *  - critical path: the duration-weighted longest dependency chain —
 *    the floor on wall-clock time no worker count can beat;
 *  - achievable vs achieved speedup: total work / critical path vs
 *    total work / makespan;
 *  - a time-bucketed concurrency profile (how many tasks ran at once
 *    across the build window);
 *  - per-worker idle attribution, split by cause: pool ramp (the
 *    worker did not exist yet), dependency stall (undone tasks
 *    existed but none was running-eligible — blocked by dep edges or
 *    by the engine's phase barriers), queue empty (every declared
 *    task was finished or already running).
 *
 * Determinism contract, split exactly like the prof.* namespace:
 * the DAG *structure* (task ids, labels, kinds, dependency edges,
 * cache-hit flags — everything under the report's "structure" key and
 * the sched.* metrics counters) is identical for any --jobs value;
 * everything under "timing" (timestamps, workers, speedups, the
 * concurrency profile) is wall-clock data and only ever band-gated.
 * Task ids are assigned in declaration order on the calling thread,
 * so they are stable run to run.
 *
 * Recording is session-scoped like prof: until startSession() every
 * entry point is one relaxed atomic load.
 */

#ifndef TEPIC_SUPPORT_SCHED_HH
#define TEPIC_SUPPORT_SCHED_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tepic::support {

class MetricsRegistry;

namespace sched {

/** The id declareTask() hands out while no session is recording. */
inline constexpr std::uint64_t kNoTask = ~std::uint64_t(0);

/** Worker id of a task that never ran (cache hit). */
inline constexpr std::uint32_t kNoWorker = 0xffffffffu;

/** Pseudo worker id for the calling (main) thread. */
inline constexpr std::uint32_t kMainWorker = 0xfffffffeu;

/** What a caller declares about one schedulable unit of work. */
struct TaskDecl
{
    std::string label;     ///< display name, "<workload>/<detail>"
    std::string kind;      ///< "compile", artifactKindName(), "hit"
    std::string workload;  ///< batch label (BuildRequest::label)
    std::string scheme;    ///< scheme detail ("s0".."s5", ...) or ""
    std::vector<std::uint64_t> deps;  ///< ids of prerequisite tasks
    bool cacheHit = false;            ///< satisfied without running
};

/** One task's full record: declaration + observed timeline. */
struct TaskRecord
{
    std::uint64_t id = 0;
    TaskDecl decl;
    std::uint64_t enqueueNs = 0;  ///< declaration time (since epoch)
    std::uint64_t startNs = 0;    ///< 0 when never ran
    std::uint64_t finishNs = 0;   ///< 0 when never ran
    std::uint32_t worker = kNoWorker;
    bool ran = false;

    std::uint64_t
    durationNs() const
    {
        return ran ? finishNs - startNs : 0;
    }
};

/** One worker's summarized timeline within the build window. */
struct WorkerSummary
{
    std::uint32_t worker = kNoWorker;  ///< kMainWorker for "main"
    std::string name;                  ///< "main" or "w<N>"
    std::uint64_t startNs = 0;   ///< attach, clamped to the window
    std::uint64_t endNs = 0;     ///< detach or window end
    std::uint64_t busyNs = 0;    ///< sum of task durations
    std::uint64_t rampNs = 0;    ///< window start -> attach
    std::uint64_t queueEmptyNs = 0;
    std::uint64_t depStallNs = 0;
    std::uint64_t tasksRun = 0;
    // Invariant (asserted in analyze() and re-checked by
    // tools/tepic_reports.py): rampNs + busyNs + queueEmptyNs +
    // depStallNs == endNs - window start.
};

/** Everything analyze() derives from the event stream. */
struct Analysis
{
    unsigned jobs = 0;           ///< startSession() argument
    std::vector<TaskRecord> tasks;  ///< by id (dense)
    std::uint64_t edgeCount = 0;
    std::uint64_t cacheHits = 0;
    bool acyclic = true;

    std::uint64_t windowStartNs = 0;  ///< min enqueue over ran tasks
    std::uint64_t windowEndNs = 0;    ///< max finish over ran tasks
    std::uint64_t makespanNs = 0;     ///< windowEnd - windowStart
    std::uint64_t totalWorkNs = 0;    ///< sum of task durations
    std::uint64_t criticalPathNs = 0;
    std::vector<std::uint64_t> criticalPath;  ///< task ids, root first

    double achievedSpeedup = 0.0;    ///< totalWork / makespan
    double achievableSpeedup = 0.0;  ///< totalWork / criticalPath

    std::uint64_t bucketNs = 0;        ///< concurrency bucket width
    std::vector<double> concurrency;   ///< mean running tasks/bucket

    std::vector<WorkerSummary> workers;
};

/** Runtime switch; one relaxed atomic load. */
bool enabled();

/**
 * Reset the recorder, mark the epoch, and enable collection. @p jobs
 * is the engine parallelism the session was asked for (0 = hardware
 * concurrency), recorded verbatim into the report.
 */
void startSession(unsigned jobs);

/** Disable collection; recorded events stay until the next start. */
void endSession();

/**
 * Declare one task (assigning the next id in declaration order) and
 * stamp its enqueue time. Returns the id, or kNoTask when disabled.
 * Dependency ids must come from earlier declareTask() calls, which
 * makes the recorded graph acyclic by construction.
 */
std::uint64_t declareTask(TaskDecl decl);

/** Mark @p id running on the calling thread's worker (TLS). */
void taskStarted(std::uint64_t id);

/** Mark @p id finished. */
void taskFinished(std::uint64_t id);

/**
 * ThreadPool hook: tag the calling thread as pool worker @p worker
 * (ids 0..N-1) and record its spawn time. The id outlives sessions
 * (it is thread-local); the attach event is recorded only while a
 * session is active.
 */
void workerAttach(std::uint32_t worker);

/** ThreadPool hook: record the worker's exit and clear the tag. */
void workerDetach();

/** The calling thread's worker id (kMainWorker outside a pool). */
std::uint32_t currentWorker();

/** Reconstruct DAG + timelines from the current session's events. */
Analysis analyze();

/**
 * Render schema "tepic-sched-v1" for the current session: a
 * "structure" object (exact-gated across --jobs) and a "timing"
 * object (band-gated wall-clock data). @p name labels the report.
 */
std::string reportJson(const std::string &name);

/**
 * Deterministic sched.* counters into @p metrics: sched.tasks,
 * sched.edges, sched.cache_hits and per-kind sched.tasks.<kind> —
 * all exact-gated, identical for any --jobs. No-op when no session
 * was ever started (so binaries that never record stay key-stable).
 */
void exportMetricsTo(MetricsRegistry &metrics);

// Test hooks.

/** Drop all recorded state and disable (tests only). */
void resetForTest();

} // namespace sched

} // namespace tepic::support

#endif // TEPIC_SUPPORT_SCHED_HH
