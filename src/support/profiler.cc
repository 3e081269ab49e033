#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "support/profiler.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/text_file.hh"

#if defined(__linux__)
#define TEPIC_PROF_HAVE_PERF 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define TEPIC_PROF_HAVE_PERF 0
#endif

#if defined(__unix__) || defined(__APPLE__)
#define TEPIC_PROF_HAVE_SIGNALS 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#else
#define TEPIC_PROF_HAVE_SIGNALS 0
#endif

namespace tepic::support::prof {

const std::vector<std::string_view> &
phaseNames()
{
    static const std::vector<std::string_view> names = [] {
        std::vector<std::string_view> out;
        for (const LayerRow &row : kLayers)
            if (row.phase && std::find(out.begin(), out.end(),
                                       row.phase) == out.end())
                out.push_back(row.phase);
        out.push_back("other");
        return out;
    }();
    return names;
}

PhaseCounters
Snapshot::phase(std::string_view name) const
{
    if (name == "other")
        return other;
    PhaseCounters sum;
    for (unsigned l = 0; l < kNumLayers; ++l) {
        if (!kLayers[l].phase || name != kLayers[l].phase)
            continue;
        sum.cycles += layers[l].cycles;
        sum.instructions += layers[l].instructions;
        sum.cacheMisses += layers[l].cacheMisses;
        sum.branchMisses += layers[l].branchMisses;
        sum.cpuNs += layers[l].cpuNs;
        sum.enters += layers[l].enters;
    }
    return sum;
}

namespace {

constexpr unsigned kNumValues = 5;  // cycles, instr, cmiss, bmiss, cpu_ns

void
writeCounters(JsonWriter &json, const PhaseCounters &c, bool with_enters)
{
    json.object(JsonWriter::kInline);
    json.key("cycles").value(c.cycles);
    json.key("instructions").value(c.instructions);
    json.key("cache_misses").value(c.cacheMisses);
    json.key("branch_misses").value(c.branchMisses);
    json.key("cpu_ns").value(c.cpuNs);
    if (with_enters)
        json.key("enters").value(c.enters);
    json.end();
}

/**
 * The throughput section: each work counter over the CPU time of the
 * phases that did the work. A rate is written only when its work
 * counter is non-zero, so the key set follows the (deterministic)
 * work, never the host.
 */
void
writeThroughput(JsonWriter &json, const Snapshot &snap,
                const MetricsRegistry &metrics)
{
    const auto rate = [&](const std::string &key, std::uint64_t work,
                          std::uint64_t ns) {
        if (work == 0)
            return;
        const double seconds = double(ns) / 1e9;
        json.key(key).value(seconds > 0.0 ? double(work) / seconds
                                          : 0.0);
    };
    json.key("throughput").object();
    rate("blocks_simulated_per_sec",
         metrics.counter("prof.work.blocks_simulated"),
         snap.phase("fetch_sim").cpuNs);
    for (unsigned s = 0; s < kNumFetchSchemes; ++s) {
        const std::string fetch = "fetch." + std::string(kFetchSchemes[s]);
        rate(fetch + ".blocks_per_sec",
             metrics.counter("prof.work." + fetch + ".blocks_simulated"),
             snap.fetchCpuNs[s]);
    }
    // Always present (0.0 without perf events) so the key set does not
    // depend on the host's perf_event_paranoid setting.
    json.key("ipc_host").value(snap.perfEvents && snap.total.cycles > 0
                                   ? double(snap.total.instructions) /
                                         double(snap.total.cycles)
                                   : 0.0);
    std::uint64_t encode_ns = 0;
    for (const char *phase : {"build_base", "build_byte", "build_stream",
                              "build_full", "build_tailored",
                              "bench_kernel"})
        encode_ns += snap.phase(phase).cpuNs;
    rate("ops_encoded_per_sec", metrics.counter("prof.work.ops_encoded"),
         encode_ns);
    json.end();
}

/**
 * Render the report body from a snapshot plus the registry's
 * prof.work.* counters.
 */
std::string
renderReport(const std::string &name, const char *source,
             const Snapshot &snap, const MetricsRegistry &metrics)
{
    JsonWriter json;
    json.object();
    json.key("schema").value("tepic-prof-v1");
    json.key("name").value(name);
    json.key("source").value(source);

    json.key("total");
    writeCounters(json, snap.total, false);
    json.key("phases").object();
    for (const std::string_view phase : phaseNames()) {
        json.key(phase);
        writeCounters(json, snap.phase(phase), true);
    }
    json.end();

    json.key("work").object();
    for (const auto &counter : metrics.counterNames()) {
        if (counter.rfind("prof.work.", 0) != 0)
            continue;
        json.key(counter.substr(std::strlen("prof.work.")))
            .value(metrics.counter(counter));
    }
    json.end();

    writeThroughput(json, snap, metrics);

    json.key("samples").object(JsonWriter::kInline);
    json.key("taken").value(snap.samplesTaken);
    json.key("dropped").value(snap.samplesDropped);
    return json.end().end().take();
}

// ---------------------------------------------------------------------------
// Per-thread counter state.

constexpr int kMaxDepth = 64;

using Values = std::uint64_t[kNumValues];

/** Process-wide perf mode: -1 undecided, 0 fallback, 1 perf events. */
std::atomic<int> g_perfMode{-1};

/** Whether a session is charging phases. */
std::atomic<bool> g_session{false};

struct ThreadState
{
    // Frame stack (owner thread only).
    struct Frame
    {
        Layer layer;
        Values enter;
        Values child;  ///< Σ inclusive cost of completed children
    };
    Frame stack[kMaxDepth];
    int depth = 0;

    // Committed charges: written by the owner with relaxed stores,
    // summed by snapshot() with relaxed loads (no torn u64 reads).
    std::atomic<std::uint64_t> self[kNumLayers][kNumValues] = {};
    std::atomic<std::uint64_t> enters[kNumLayers] = {};
    std::atomic<std::uint64_t> topLevel[kNumValues] = {};

#if TEPIC_PROF_HAVE_PERF
    int perfFd[4] = {-1, -1, -1, -1};  ///< group leader first
    bool perfOpen = false;
#endif

    ThreadState *next = nullptr;
};

struct Registry
{
    std::mutex mutex;
    ThreadState *head = nullptr;
    // Charges of threads that exited (folded under mutex).
    std::uint64_t retiredSelf[kNumLayers][kNumValues] = {};
    std::uint64_t retiredEnters[kNumLayers] = {};

    // Session mark ("other" baseline).
    ThreadState *sessionThread = nullptr;
    Values sessionStart = {};

    std::uint64_t fetchCpuNs[kNumFetchSchemes] = {};
};

Registry &
registry()
{
    static Registry *r = new Registry;  // leaked: threads may outlive main
    return *r;
}

#if TEPIC_PROF_HAVE_PERF

int
openPerfCounter(std::uint32_t type, std::uint64_t config, int group)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.disabled = 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    return int(syscall(SYS_perf_event_open, &attr, 0, -1, group, 0));
}

bool
openPerfGroup(ThreadState &state)
{
    static const std::uint64_t configs[4] = {
        PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
    for (int i = 0; i < 4; ++i) {
        state.perfFd[i] = openPerfCounter(
            PERF_TYPE_HARDWARE, configs[i],
            i == 0 ? -1 : state.perfFd[0]);
        if (state.perfFd[i] < 0) {
            for (int j = 0; j < i; ++j) {
                ::close(state.perfFd[j]);
                state.perfFd[j] = -1;
            }
            return false;
        }
    }
    state.perfOpen = true;
    return true;
}

#endif // TEPIC_PROF_HAVE_PERF

} // namespace

std::uint64_t
threadCpuNowNs()
{
#if TEPIC_PROF_HAVE_SIGNALS
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0;
    return std::uint64_t(ts.tv_sec) * 1000000000ull +
           std::uint64_t(ts.tv_nsec);
#else
    return 0;
#endif
}

namespace {

void
readNow(ThreadState &state, Values &out)
{
    const std::uint64_t ns = threadCpuNowNs();
    out[4] = ns;
#if TEPIC_PROF_HAVE_PERF
    if (state.perfOpen) {
        // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; }.
        std::uint64_t buf[1 + 4] = {};
        const ssize_t got = ::read(state.perfFd[0], buf, sizeof(buf));
        if (got >= ssize_t(sizeof(std::uint64_t) * 5) && buf[0] == 4) {
            out[0] = buf[1];
            out[1] = buf[2];
            out[2] = buf[3];
            out[3] = buf[4];
            return;
        }
    }
#else
    (void)state;
#endif
    // Fallback: "cycles" is defined as thread-CPU nanoseconds so the
    // tiling invariant is preserved; the other events read zero.
    out[0] = ns;
    out[1] = out[2] = out[3] = 0;
}

/** Decide the process-wide counter source on first use. */
int
perfMode(ThreadState &state)
{
    int mode = g_perfMode.load(std::memory_order_acquire);
    if (mode < 0) {
#if TEPIC_PROF_HAVE_PERF
        const bool ok = openPerfGroup(state);
        int expected = -1;
        if (!g_perfMode.compare_exchange_strong(
                expected, ok ? 1 : 0, std::memory_order_acq_rel)) {
            // Raced with another thread's probe; defer to its verdict.
            mode = expected;
            if (ok && mode == 0) {
                for (int &fd : state.perfFd) {
                    if (fd >= 0)
                        ::close(fd);
                    fd = -1;
                }
                state.perfOpen = false;
            }
        } else {
            mode = ok ? 1 : 0;
            if (!ok) {
                TEPIC_INFORM("profiler: perf_event_open unavailable "
                             "(falling back to thread CPU time)");
            }
        }
#else
        (void)state;
        g_perfMode.store(0, std::memory_order_release);
        mode = 0;
#endif
    }
    return mode;
}

/** Folds a dying thread's charges into the retired accumulators. */
struct ThreadHolder
{
    ThreadState *state = nullptr;

    ~ThreadHolder()
    {
        if (!state)
            return;
        auto &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        for (unsigned l = 0; l < kNumLayers; ++l) {
            for (unsigned v = 0; v < kNumValues; ++v) {
                reg.retiredSelf[l][v] += state->self[l][v].load(
                    std::memory_order_relaxed);
            }
            reg.retiredEnters[l] +=
                state->enters[l].load(std::memory_order_relaxed);
        }
        if (reg.sessionThread == state)
            reg.sessionThread = nullptr;
        ThreadState **link = &reg.head;
        while (*link && *link != state)
            link = &(*link)->next;
        if (*link)
            *link = state->next;
#if TEPIC_PROF_HAVE_PERF
        for (int fd : state->perfFd)
            if (fd >= 0)
                ::close(fd);
#endif
        delete state;
    }
};

thread_local ThreadHolder t_holder;

ThreadState &
threadState()
{
    if (!t_holder.state) {
        auto *state = new ThreadState;
#if TEPIC_PROF_HAVE_PERF
        if (perfMode(*state) == 1 && !state->perfOpen)
            openPerfGroup(*state);  // probe ran on another thread
#else
        perfMode(*state);
#endif
        auto &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        state->next = reg.head;
        reg.head = state;
        t_holder.state = state;
    }
    return *t_holder.state;
}

// ---------------------------------------------------------------------------
// Sampling profiler (SIGPROF ring buffer).

#if TEPIC_PROF_HAVE_SIGNALS

constexpr unsigned kMaxFrames = 48;
constexpr unsigned kSampleCapacity = 1u << 14;
/** Handler frames to drop: the handler itself + signal trampoline. */
constexpr int kSkipFrames = 2;

struct SampleSlot
{
    void *frames[kMaxFrames];
    std::atomic<int> depth{0};  ///< 0 until fully written (release)
};

SampleSlot *g_slots = nullptr;
std::atomic<bool> g_sampling{false};
std::atomic<std::uint32_t> g_nextSlot{0};

extern "C" void
tepicProfSignalHandler(int)
{
    if (!g_sampling.load(std::memory_order_relaxed))
        return;
    const std::uint32_t idx =
        g_nextSlot.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kSampleCapacity)
        return;  // dropped; accounted at snapshot from g_nextSlot
    SampleSlot &slot = g_slots[idx];
    const int n = backtrace(slot.frames, kMaxFrames);
    slot.depth.store(n, std::memory_order_release);
}

std::string
symbolize(void *addr, std::map<void *, std::string> &cache)
{
    auto it = cache.find(addr);
    if (it != cache.end())
        return it->second;
    std::string name;
    Dl_info info;
    if (dladdr(addr, &info) && info.dli_sname) {
        int status = 0;
        char *demangled = abi::__cxa_demangle(info.dli_sname, nullptr,
                                              nullptr, &status);
        name = status == 0 && demangled ? demangled : info.dli_sname;
        std::free(demangled);
        // ';' is the collapsed-stack frame separator.
        for (char &c : name)
            if (c == ';')
                c = ':';
    } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "[%p]", addr);
        name = buf;
    }
    cache.emplace(addr, name);
    return name;
}

#endif // TEPIC_PROF_HAVE_SIGNALS

std::pair<std::uint64_t, std::uint64_t>
sampleCounts()
{
#if TEPIC_PROF_HAVE_SIGNALS
    const std::uint64_t requested =
        g_nextSlot.load(std::memory_order_relaxed);
    const std::uint64_t taken =
        requested < kSampleCapacity ? requested : kSampleCapacity;
    return {taken, requested - taken};
#else
    return {0, 0};
#endif
}

} // namespace

// ---------------------------------------------------------------------------
// Scope frames.

bool
enabled()
{
    return g_session.load(std::memory_order_relaxed);
}

bool
pushFrame(Layer layer)
{
    if (!enabled())
        return false;
    ThreadState &state = threadState();
    if (state.depth >= kMaxDepth)
        return false;
    ThreadState::Frame &frame = state.stack[state.depth++];
    frame.layer = layer;
    std::memset(frame.child, 0, sizeof(frame.child));
    readNow(state, frame.enter);
    return true;
}

void
popFrame()
{
    ThreadState &state = threadState();
    ThreadState::Frame &frame = state.stack[--state.depth];
    Values now;
    readNow(state, now);
    const unsigned l = unsigned(frame.layer);
    for (unsigned v = 0; v < kNumValues; ++v) {
        const std::uint64_t inclusive =
            now[v] >= frame.enter[v] ? now[v] - frame.enter[v] : 0;
        const std::uint64_t self = inclusive >= frame.child[v]
                                       ? inclusive - frame.child[v]
                                       : 0;
        state.self[l][v].store(
            state.self[l][v].load(std::memory_order_relaxed) + self,
            std::memory_order_relaxed);
        if (state.depth > 0) {
            state.stack[state.depth - 1].child[v] += inclusive;
        } else {
            state.topLevel[v].store(
                state.topLevel[v].load(std::memory_order_relaxed) +
                    inclusive,
                std::memory_order_relaxed);
        }
    }
    state.enters[l].store(
        state.enters[l].load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Session / snapshot / export.

void
startSession()
{
    ThreadState &state = threadState();
    auto &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        for (ThreadState *t = reg.head; t; t = t->next) {
            for (unsigned l = 0; l < kNumLayers; ++l) {
                for (unsigned v = 0; v < kNumValues; ++v)
                    t->self[l][v].store(0, std::memory_order_relaxed);
                t->enters[l].store(0, std::memory_order_relaxed);
            }
            for (unsigned v = 0; v < kNumValues; ++v)
                t->topLevel[v].store(0, std::memory_order_relaxed);
        }
        std::memset(reg.retiredSelf, 0, sizeof(reg.retiredSelf));
        std::memset(reg.retiredEnters, 0, sizeof(reg.retiredEnters));
        std::memset(reg.fetchCpuNs, 0, sizeof(reg.fetchCpuNs));
        reg.sessionThread = &state;
        readNow(state, reg.sessionStart);
    }
    g_session.store(true, std::memory_order_release);
}

void
endSession()
{
    g_session.store(false, std::memory_order_relaxed);
}

void
chargeFetchCpu(std::string_view scheme, std::uint64_t ns)
{
    if (!enabled())
        return;
    const auto *it = std::find(std::begin(kFetchSchemes),
                               std::end(kFetchSchemes), scheme);
    TEPIC_ASSERT(it != std::end(kFetchSchemes),
                 "unknown fetch scheme '", scheme, "'");
    auto &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.fetchCpuNs[it - std::begin(kFetchSchemes)] += ns;
}

Snapshot
snapshot()
{
    Snapshot snap;
    snap.perfEvents = g_perfMode.load(std::memory_order_acquire) == 1;
    auto &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);

    std::uint64_t self[kNumLayers][kNumValues];
    std::uint64_t enters[kNumLayers];
    for (unsigned l = 0; l < kNumLayers; ++l) {
        for (unsigned v = 0; v < kNumValues; ++v)
            self[l][v] = reg.retiredSelf[l][v];
        enters[l] = reg.retiredEnters[l];
    }
    std::memcpy(snap.fetchCpuNs, reg.fetchCpuNs, sizeof(snap.fetchCpuNs));
    for (ThreadState *state = reg.head; state; state = state->next) {
        for (unsigned l = 0; l < kNumLayers; ++l) {
            for (unsigned v = 0; v < kNumValues; ++v) {
                self[l][v] += state->self[l][v].load(
                    std::memory_order_relaxed);
            }
            enters[l] +=
                state->enters[l].load(std::memory_order_relaxed);
        }
    }

    const auto fill = [](PhaseCounters &c, const Values &values) {
        c.cycles = values[0];
        c.instructions = values[1];
        c.cacheMisses = values[2];
        c.branchMisses = values[3];
        c.cpuNs = values[4];
    };
    Values total = {};
    for (unsigned l = 0; l < kNumLayers; ++l) {
        fill(snap.layers[l], self[l]);
        snap.layers[l].enters = enters[l];
        snap.total.enters += enters[l];
        for (unsigned v = 0; v < kNumValues; ++v)
            total[v] += self[l][v];
    }

    // "other": session-thread CPU time not inside any scope.
    // Computable only from the session thread itself (thread CPU
    // clocks are per-calling-thread); from elsewhere it stays 0.
    if (reg.sessionThread && reg.sessionThread == t_holder.state) {
        Values now;
        readNow(*reg.sessionThread, now);
        Values other;
        for (unsigned v = 0; v < kNumValues; ++v) {
            const std::uint64_t session =
                now[v] >= reg.sessionStart[v]
                    ? now[v] - reg.sessionStart[v]
                    : 0;
            const std::uint64_t scoped =
                reg.sessionThread->topLevel[v].load(
                    std::memory_order_relaxed);
            other[v] = session >= scoped ? session - scoped : 0;
            total[v] += other[v];
        }
        fill(snap.other, other);
    }
    fill(snap.total, total);
    const auto [taken, dropped] = sampleCounts();
    snap.samplesTaken = taken;
    snap.samplesDropped = dropped;
    return snap;
}

std::string
reportJson(const std::string &name, const MetricsRegistry &metrics)
{
    const Snapshot snap = snapshot();
    // Re-assert the tiling invariant the schema promises.
    std::uint64_t sum = 0;
    for (const std::string_view phase : phaseNames())
        sum += snap.phase(phase).cycles;
    TEPIC_ASSERT(sum == snap.total.cycles,
                 "profiler phase tiling violated: ", sum, " vs ",
                 snap.total.cycles);
    return renderReport(name,
                        snap.perfEvents ? "perf_event"
                                        : "thread_cputime",
                        snap, metrics);
}

// ---------------------------------------------------------------------------
// Sampling.

bool
startSampling(unsigned hz)
{
#if TEPIC_PROF_HAVE_SIGNALS
    if (g_sampling.load(std::memory_order_relaxed))
        return false;
    if (hz < 1)
        hz = 1;
    if (hz > 10000)
        hz = 10000;
    if (!g_slots)
        g_slots = new SampleSlot[kSampleCapacity];
    for (unsigned i = 0; i < kSampleCapacity; ++i)
        g_slots[i].depth.store(0, std::memory_order_relaxed);
    g_nextSlot.store(0, std::memory_order_relaxed);

    // Prime backtrace: its first call may allocate (libgcc load),
    // which must not happen inside the signal handler.
    void *prime[4];
    backtrace(prime, 4);

    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = tepicProfSignalHandler;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
        TEPIC_WARN("profiler: sigaction(SIGPROF) failed");
        return false;
    }
    g_sampling.store(true, std::memory_order_release);

    itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = long(1000000 / hz);
    if (timer.it_interval.tv_usec == 0)
        timer.it_interval.tv_usec = 1;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
        g_sampling.store(false, std::memory_order_release);
        TEPIC_WARN("profiler: setitimer(ITIMER_PROF) failed");
        return false;
    }
    return true;
#else
    (void)hz;
    return false;
#endif
}

void
stopSampling()
{
#if TEPIC_PROF_HAVE_SIGNALS
    if (!g_sampling.load(std::memory_order_relaxed))
        return;
    itimerval timer = {};
    setitimer(ITIMER_PROF, &timer, nullptr);
    g_sampling.store(false, std::memory_order_release);
#endif
}

std::string
collapsedStacks()
{
#if TEPIC_PROF_HAVE_SIGNALS
    const auto [taken, dropped] = sampleCounts();
    (void)dropped;
    std::map<void *, std::string> symbols;
    std::map<std::string, std::uint64_t> folded;
    for (std::uint64_t i = 0; i < taken; ++i) {
        SampleSlot &slot = g_slots[i];
        const int depth = slot.depth.load(std::memory_order_acquire);
        if (depth <= kSkipFrames)
            continue;  // incomplete slot or nothing below the handler
        std::string stack;
        // backtrace() is leaf-first; collapsed format is root-first.
        for (int f = depth - 1; f >= kSkipFrames; --f) {
            if (!stack.empty())
                stack += ';';
            stack += symbolize(slot.frames[f], symbols);
        }
        ++folded[stack];
    }
    std::string out;
    for (const auto &[stack, count] : folded)
        out += stack + " " + std::to_string(count) + "\n";
    return out;
#else
    return {};
#endif
}

bool
writeCollapsed(const std::string &path)
{
    return writeTextFile(path, collapsedStacks(), "collapsed stacks");
}

} // namespace tepic::support::prof
