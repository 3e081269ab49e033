/**
 * @file
 * Host-performance profiling: where does the *simulator's own* CPU
 * time go, in hardware-counter terms?
 *
 * Two instruments:
 *
 *  - Phase counters: a support::Scope (scope.hh) whose Layer row names
 *    a PROF phase attributes the host cycles / instructions /
 *    cache-misses / branch-misses / CPU-ns spent inside it to that
 *    phase. Attribution is *self-time*: a scope nested inside another
 *    (on the same thread) subtracts its inclusive cost from its
 *    parent, so the per-phase charges tile the total with no double
 *    counting — the same invariant discipline as SizeLedger leaves
 *    tiling an artifact's bits. Counters come from perf_event_open
 *    when the kernel allows it; the fallback ladder is
 *
 *        perf_event (cycles/instr/cache-miss/branch-miss + cpu-ns)
 *          -> CLOCK_THREAD_CPUTIME_ID (cpu-ns only; "cycles" is then
 *             defined as cpu-ns so the tiling invariant still holds)
 *
 *    The mode is decided once per process (first probe) and reported
 *    as the "source" field of the PROF report, so CI containers with
 *    perf_event_paranoid locked down degrade loudly, not wrongly.
 *
 *  - Sampling profiler: SIGPROF (ITIMER_PROF, i.e. process CPU time)
 *    samples the running thread's call stack into a fixed ring;
 *    collapsedStacks() folds them into FlameGraph "collapsed" text
 *    (root;child;leaf count), rendered by tools/tepic_reports.py.
 *
 * Charging is session-scoped, and the phase set is the Layer table's
 * PROF column plus "other", so every report carries the *same key
 * set* regardless of --jobs or which phases actually ran — zero-valued
 * phases are emitted, making PROF_<name>.json key-set deterministic
 * (a tested guarantee; only the counter *values* are wall-clock data).
 *
 * Every number PROF measures stays in its own session state — the
 * per-phase counters and the per-scheme fetch CPU time core::runFetch
 * charges (chargeFetchCpu) — and reaches the outside only through the
 * PROF report. The one thing it takes from support::MetricsRegistry
 * is the prof.work.* counters: deterministic work counts (ops
 * encoded, blocks simulated), exact-gated like any counter, which
 * the report's throughput section divides by those CPU times.
 */

#ifndef TEPIC_SUPPORT_PROFILER_HH
#define TEPIC_SUPPORT_PROFILER_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "support/scope.hh"

namespace tepic::support {

class MetricsRegistry;

namespace prof {

/**
 * The PROF phase names: the Layer table's phase column in first-use
 * order, then "other" (session-thread time outside any scope).
 */
const std::vector<std::string_view> &phaseNames();

/** One phase's (or the total's) accumulated hardware counters. */
struct PhaseCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t cpuNs = 0;
    std::uint64_t enters = 0;
};

/** The fetch schemes chargeFetchCpu() keeps, in report order. */
inline constexpr std::string_view kFetchSchemes[] = {"base", "compressed",
                                                     "tailored"};
constexpr unsigned kNumFetchSchemes = std::size(kFetchSchemes);

/** Aggregated view of every layer across every thread. */
struct Snapshot
{
    bool perfEvents = false;  ///< true: real HW counters; false: cpu-ns
    PhaseCounters layers[kNumLayers];  ///< self-time per Layer row
    PhaseCounters other;  ///< session-thread time outside any scope
    PhaseCounters total;  ///< == Σ layers + other (tiling invariant)
    /** CPU-ns charged per kFetchSchemes entry (chargeFetchCpu). */
    std::uint64_t fetchCpuNs[kNumFetchSchemes] = {};
    std::uint64_t samplesTaken = 0;
    std::uint64_t samplesDropped = 0;

    /** Σ of the layers charging phase @p name (or other). */
    PhaseCounters phase(std::string_view name) const;
};

/** Whether a session is charging phases; one relaxed atomic load. */
bool enabled();

/**
 * Reset all accumulators, mark the session start on the calling
 * thread and start charging; "other" is this thread's CPU time spent
 * outside any scope between here and snapshot().
 */
void startSession();

/** Stop charging; the charges stay until the next startSession(). */
void endSession();

/** Fold every thread's charges (relaxed reads; tiling re-asserted). */
Snapshot snapshot();

/**
 * Render schema "tepic-prof-v1": source, total, all phases (tiling
 * total exactly), the registry's prof.work.* counters, throughput
 * derived from them and the phase times, and sampling stats.
 */
std::string reportJson(const std::string &name,
                       const MetricsRegistry &metrics);

/**
 * CLOCK_THREAD_CPUTIME_ID now, for callers that attribute their own
 * cpu-time deltas (e.g. per-scheme fetch runtime in core::runFetch).
 */
std::uint64_t threadCpuNowNs();

/**
 * Charge @p ns of CPU time to the fetch simulations of @p scheme (a
 * kFetchSchemes name): the denominator of the report's
 * fetch.<scheme>.blocks_per_sec. Ignored outside a session.
 */
void chargeFetchCpu(std::string_view scheme, std::uint64_t ns);

/**
 * Scope's hooks: open a self-time frame for @p layer on the calling
 * thread (false, and nothing to close, outside a session), and close
 * the innermost one.
 */
bool pushFrame(Layer layer);
void popFrame();

// --- sampling --------------------------------------------------------

/**
 * Install the SIGPROF handler and start the CPU-time sample timer at
 * @p hz (clamped to [1, 10000]). Returns false if a sampler is
 * already running or the timer cannot be installed.
 */
bool startSampling(unsigned hz = 997);

/** Stop the timer; samples stay buffered for collapsedStacks(). */
void stopSampling();

/**
 * Fold buffered samples into FlameGraph collapsed-stack text, one
 * "frame;frame;...;frame count" line per unique stack (root first).
 * Symbolization uses dladdr; frames without symbols render as hex.
 */
std::string collapsedStacks();

/** collapsedStacks() to a file; warns (returns false) on I/O failure. */
bool writeCollapsed(const std::string &path);

} // namespace prof

} // namespace tepic::support

#endif // TEPIC_SUPPORT_PROFILER_HH
