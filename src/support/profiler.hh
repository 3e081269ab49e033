/**
 * @file
 * Host-performance profiling: where does the *simulator's own* CPU
 * time go, in hardware-counter terms?
 *
 * Two instruments, both scoped to a fixed phase taxonomy:
 *
 *  - Phase counters: `ProfScope scope(Phase::kFetchSim)` attributes
 *    the host cycles / instructions / cache-misses / branch-misses /
 *    CPU-ns spent inside the scope to that phase. Attribution is
 *    *self-time*: a scope nested inside another (on the same thread)
 *    subtracts its inclusive cost from its parent, so the per-phase
 *    charges tile the total with no double counting — the same
 *    invariant discipline as SizeLedger leaves tiling an artifact's
 *    bits. Counters come from perf_event_open when the kernel allows
 *    it; the fallback ladder is
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
 * The phase set is a closed enum so every report carries the *same
 * key set* regardless of --jobs or which phases actually ran —
 * zero-valued phases are emitted, making PROF_<name>.json key-set
 * deterministic (a tested guarantee; only the counter *values* are
 * wall-clock data).
 *
 * Determinism contract with support::MetricsRegistry:
 *
 *   prof.work.*   counters — deterministic work counts (ops encoded,
 *                 blocks simulated), exact-gated like any counter
 *   prof.*        gauges — derived throughput (work / phase CPU-s),
 *                 key-set stable but value-varying; the comparison
 *                 tools treat the prof. gauge namespace like timings
 *   prof.*        runtime — raw per-phase counter values (env data)
 *
 * Compile-time disable: profiling follows the tracing switch
 * (-DTEPIC_ENABLE_TRACING=OFF) unless TEPIC_PROFILING_ENABLED is set
 * explicitly; disabled, ProfScope is an empty type and every entry
 * point folds to an inline no-op.
 */

#ifndef TEPIC_SUPPORT_PROFILER_HH
#define TEPIC_SUPPORT_PROFILER_HH

#include <cstdint>
#include <string>

#include "support/trace.hh"

#ifndef TEPIC_PROFILING_ENABLED
#define TEPIC_PROFILING_ENABLED TEPIC_TRACING_ENABLED
#endif

namespace tepic::support {

class MetricsRegistry;

namespace prof {

/**
 * The closed phase taxonomy. Every phase a ProfScope can charge —
 * reports always emit all of them (zero or not) so the key set never
 * depends on --jobs, cache hits, or which commands ran.
 */
enum class Phase : unsigned
{
    kFrontend,       ///< lex + parse + IR generation
    kOptimise,       ///< IR optimisation + weight estimation
    kBackend,        ///< lower, regalloc, emit, layout, schedule
    kEmulate,        ///< emulator runs (profile pass + final)
    kBuildBase,      ///< baseline image encode
    kBuildByte,      ///< Huffman byte-stream encode
    kBuildStream,    ///< six-stream encodes
    kBuildFull,      ///< Huffman full-stream encode
    kBuildTailored,  ///< tailored ISA build + encode
    kBuildAtt,       ///< ATT construction
    kFetchSim,       ///< cycle-accurate fetch simulation
    kWorker,         ///< thread-pool dispatch overhead (self time)
    kBenchKernel,    ///< microbench sentinel kernels
    kReport,         ///< metrics / report serialization
    kOther,          ///< session time outside any scope (main thread)
};

inline constexpr unsigned kNumPhases = 15;

/** Stable lowercase name ("frontend", "fetch_sim", ...). */
const char *phaseName(Phase phase);

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

/** Aggregated view of every phase across every thread. */
struct Snapshot
{
    bool perfEvents = false;  ///< true: real HW counters; false: cpu-ns
    PhaseCounters phases[kNumPhases];
    PhaseCounters total;  ///< == Σ phases, asserted (tiling invariant)
    std::uint64_t samplesTaken = 0;
    std::uint64_t samplesDropped = 0;
};

#if TEPIC_PROFILING_ENABLED

/** Compiled in? (Runtime phase accounting is always on when so.) */
inline bool available() { return true; }

/**
 * Reset all accumulators and mark the session start on the calling
 * thread; Phase::kOther charges this thread's CPU time spent outside
 * any scope between here and snapshot().
 */
void startSession();

/** Fold every thread's charges (relaxed reads; tiling re-asserted). */
Snapshot snapshot();

/**
 * Raw per-phase values into the registry's *runtime* section
 * ("prof.<phase>.<counter>") plus derived throughput gauges
 * ("prof.ops_encoded_per_sec", "prof.blocks_simulated_per_sec",
 * "prof.fetch.<scheme>.blocks_per_sec", "prof.ipc_host") computed
 * from the registry's deterministic prof.work.* counters. Gauges are
 * emitted only when their work counter is non-zero, so a binary's
 * gauge key set is stable run to run.
 */
void exportMetricsTo(MetricsRegistry &metrics);

/**
 * Render schema "tepic-prof-v1": source, total, all phases (tiling
 * total exactly), the registry's prof.work.* counters, the derived
 * prof.* throughput gauges, and sampling stats.
 */
std::string reportJson(const std::string &name,
                       const MetricsRegistry &metrics);

/** reportJson() to a file; warns (returns false) on I/O failure. */
bool writeReport(const std::string &path, const std::string &name,
                 const MetricsRegistry &metrics);

/**
 * CLOCK_THREAD_CPUTIME_ID now, for callers that attribute their own
 * cpu-time deltas (e.g. per-scheme fetch runtime in core::runFetch).
 */
std::uint64_t threadCpuNowNs();

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

/** collapsedStacks() to a file; warns (returns false) on failure. */
bool writeCollapsed(const std::string &path);

/** Scoped phase attribution (self-time; see file comment). */
class ProfScope
{
  public:
    explicit ProfScope(Phase phase);
    ~ProfScope();

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    bool active_ = false;
};

// Test hooks.

/** Drop every thread's charges and the session mark (tests only). */
void resetForTest();

#else // !TEPIC_PROFILING_ENABLED — everything folds away.

inline bool available() { return false; }
inline void startSession() {}
inline std::uint64_t threadCpuNowNs() { return 0; }
inline Snapshot snapshot() { return {}; }
inline void exportMetricsTo(MetricsRegistry &) {}
inline bool startSampling(unsigned = 997) { return false; }
inline void stopSampling() {}
inline std::string collapsedStacks() { return {}; }
inline bool writeCollapsed(const std::string &) { return false; }
inline void resetForTest() {}

// Out of line even when disabled: a stub PROF report (all-zero
// phases, source "disabled") keeps --prof-report= callers working in
// -DTEPIC_ENABLE_TRACING=OFF builds.
std::string reportJson(const std::string &name,
                       const MetricsRegistry &metrics);
bool writeReport(const std::string &path, const std::string &name,
                 const MetricsRegistry &metrics);

class ProfScope
{
  public:
    explicit ProfScope(Phase) {}
    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;
};

#endif // TEPIC_PROFILING_ENABLED

} // namespace prof

} // namespace tepic::support

#endif // TEPIC_SUPPORT_PROFILER_HH
