/**
 * @file
 * Tests for support::Scope and its Layer table, and for support::prof
 * — the host-performance profiler behind Scope's PROF part. Covers
 * the closed table (unique span names, the PROF phase key set), the
 * spans and SCHED records a Scope emits, session gating, the scoped
 * phase attribution (self-time, nesting), the tiling invariant
 * (Σ phase cycles == total, like the SizeLedger tiles an image's
 * bits), the tepic-prof-v1 report, the determinism contract (work
 * counters and key sets identical for any --jobs value), and the
 * sampling profiler's collapsed-stack output.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "json_mini.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
#include "support/sched.hh"
#include "support/scope.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using support::Layer;
using support::Scope;

/** Burn roughly @p ms milliseconds of this thread's CPU time. */
std::uint64_t
spinCpu(unsigned ms)
{
    const std::uint64_t start = support::prof::threadCpuNowNs();
    const std::uint64_t target =
        start + std::uint64_t(ms) * 1'000'000ull;
    std::uint64_t acc = 1469598103934665603ull;
    while (support::prof::threadCpuNowNs() < target) {
        for (int i = 0; i < 4096; ++i) {
            acc ^= std::uint64_t(i);
            acc *= 1099511628211ull;
        }
    }
    return acc;
}

std::uint64_t
phaseCycleSum(const support::prof::Snapshot &snap)
{
    std::uint64_t sum = 0;
    for (const std::string_view phase : support::prof::phaseNames())
        sum += snap.phase(phase).cycles;
    return sum;
}

TEST(ScopeLayers, SpanNamesAreUniqueAndFixed)
{
    // tepic-perf's per-layer table keys off these exact strings.
    const std::set<std::string> expected = {
        "engine.compile", "engine.emulate.profile", "engine.emulate",
        "engine.build.base", "engine.build.byte", "engine.build.stream",
        "engine.build.full", "engine.build.tailored", "engine.build.att",
        "engine.build.decoder", "engine.buildMany",
        "engine.phase.compile", "engine.phase.schemes",
        "engine.phase.att", "fetch.simulate", "pool.task"};
    std::set<std::string> spans;
    unsigned rows_with_span = 0;
    for (const support::LayerRow &row : support::kLayers) {
        if (!row.span)
            continue;
        ++rows_with_span;
        spans.insert(row.span);
    }
    EXPECT_EQ(spans.size(), rows_with_span) << "a span name repeats";
    EXPECT_EQ(spans, expected);
}

TEST(ScopeTask, RecordsStartAndFinish)
{
    namespace sched = support::sched;
    sched::resetForTest();
    sched::startSession(1);
    const std::uint64_t id =
        sched::declareTask({"unit/base", "base", "unit", "", {}, false});
    {
        const Scope scope(Layer::kBuildBase, id);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sched::endSession();
    const auto analysis = sched::analyze();
    ASSERT_EQ(analysis.tasks.size(), 1u);
    const auto &task = analysis.tasks[0];
    EXPECT_TRUE(task.ran);
    EXPECT_EQ(task.worker, sched::kMainWorker);
    EXPECT_GE(task.startNs, task.enqueueNs);
    EXPECT_GT(task.finishNs, task.startNs);
}

TEST(ProfilerPhaseNames, CoverTheClosedEnum)
{
    // The report's phase key set is the Layer table's PROF column plus
    // "other" — a closed, always-emitted set is what makes PROF key
    // sets --jobs-deterministic.
    const std::vector<std::string_view> expected = {
        "frontend",   "optimise",     "backend",    "emulate",
        "build_base", "build_byte",   "build_stream", "build_full",
        "build_tailored", "build_att", "fetch_sim", "worker",
        "bench_kernel", "other"};
    EXPECT_EQ(support::prof::phaseNames(), expected);
}

// Declared before any test that starts a session, so it sees a
// process in which none has run (ctest runs each case on its own).
TEST(Profiler, ReportWithoutASessionIsValid)
{
    ASSERT_FALSE(support::prof::enabled());
    support::MetricsRegistry metrics;
    metrics.addCounter("prof.work.ops_encoded", 7);
    metrics.addCounter("prof.work.fetch.base.blocks_simulated", 3);
    metrics.addCounter("fig05.not_work", 9);  // no prof.work. prefix
    const std::string json =
        support::prof::reportJson("no_session", metrics);

    const auto doc = testjson::parse(json);
    EXPECT_EQ(doc.at("schema").str, "tepic-prof-v1");
    EXPECT_EQ(doc.at("name").str, "no_session");
    const std::string source = doc.at("source").str;
    EXPECT_TRUE(source == "perf_event" || source == "thread_cputime")
        << source;
    EXPECT_DOUBLE_EQ(doc.at("total").at("cycles").number, 0.0);
    EXPECT_DOUBLE_EQ(doc.at("total").at("cpu_ns").number, 0.0);
    const auto &phases = doc.at("phases");
    ASSERT_EQ(phases.object.size(), support::prof::phaseNames().size());
    for (const std::string_view name : support::prof::phaseNames()) {
        const auto &phase = phases.at(std::string(name));
        for (const char *counter : {"cycles", "instructions",
                                    "cache_misses", "branch_misses",
                                    "cpu_ns", "enters"})
            EXPECT_DOUBLE_EQ(phase.at(counter).number, 0.0)
                << name << "." << counter;
    }
    // The deterministic work counters surface, prefix stripped, and
    // only those.
    const auto &work = doc.at("work");
    EXPECT_EQ(work.object.size(), 2u);
    EXPECT_DOUBLE_EQ(work.at("ops_encoded").number, 7.0);
    EXPECT_DOUBLE_EQ(work.at("fetch.base.blocks_simulated").number, 3.0);
}

TEST(ScopeTrace, NestedPairEmitsTheTableSpans)
{
    namespace trace = support::trace;
    trace::start("");
    {
        const Scope outer(Layer::kBuildMany);
        const Scope inner(Layer::kFetchSim);
        const Scope unspanned(Layer::kFrontend);
    }
    const auto doc = testjson::parse(trace::stopToJson());
    const auto &events = doc.at("traceEvents").array;
    ASSERT_EQ(events.size(), 2u);
    std::multiset<std::string> names;
    for (const auto &event : events) {
        names.insert(event.at("name").str);
        EXPECT_EQ(event.at("ph").str, "X");
        // The category is the span name's first dotted component.
        const std::string &name = event.at("name").str;
        EXPECT_EQ(event.at("cat").str, name.substr(0, name.find('.')));
    }
    EXPECT_EQ(names, (std::multiset<std::string>{"engine.buildMany",
                                                 "fetch.simulate"}));
}

TEST(Profiler, ScopeChargesItsPhase)
{
    support::prof::startSession();
    {
        const Scope scope(Layer::kFrontend);
        spinCpu(5);
    }
    const auto snap = support::prof::snapshot();
    const auto fe = snap.phase("frontend");
    EXPECT_EQ(fe.enters, 1u);
    EXPECT_GT(fe.cycles, 0u);
    EXPECT_GT(fe.cpuNs, 0u);
    // Untouched phases stay zero-entered (but still reported).
    EXPECT_EQ(snap.phase("fetch_sim").enters, 0u);
}

TEST(Profiler, ScopeOutsideASessionChargesNothing)
{
    support::prof::startSession();
    support::prof::endSession();
    EXPECT_FALSE(support::prof::enabled());
    {
        const Scope scope(Layer::kFrontend);
        spinCpu(3);
    }
    const auto snap = support::prof::snapshot();
    EXPECT_EQ(snap.phase("frontend").enters, 0u);
    EXPECT_EQ(snap.phase("frontend").cycles, 0u);
}

TEST(Profiler, SecondSessionStartsFromZero)
{
    support::prof::startSession();
    {
        const Scope scope(Layer::kBuildFull);
        spinCpu(3);
    }
    std::thread worker([] {
        const Scope scope(Layer::kPoolTask);
        spinCpu(3);
    });
    worker.join();
    ASSERT_EQ(support::prof::snapshot().phase("build_full").enters, 1u);
    ASSERT_EQ(support::prof::snapshot().phase("worker").enters, 1u);

    support::prof::startSession();
    const auto snap = support::prof::snapshot();
    for (const auto &layer : snap.layers) {
        EXPECT_EQ(layer.enters, 0u);
        EXPECT_EQ(layer.cycles, 0u);
    }
}

TEST(Profiler, NestedScopesAttributeSelfTime)
{
    support::prof::startSession();
    {
        const Scope outer(Layer::kBackend);
        spinCpu(4);
        {
            const Scope inner(Layer::kOptimise);
            spinCpu(12);
        }
        spinCpu(4);
    }
    const auto snap = support::prof::snapshot();
    const auto outer = snap.phase("backend");
    const auto inner = snap.phase("optimise");
    EXPECT_EQ(outer.enters, 1u);
    EXPECT_EQ(inner.enters, 1u);
    // Self-time: the inner 12 ms belong to optimise alone; backend
    // keeps only its own ~8 ms. Generous bounds — CI timers jitter.
    EXPECT_GT(inner.cpuNs, outer.cpuNs);
    // No double counting: the two phases plus scope overhead must not
    // exceed the session's wall CPU (tiling catches inflation).
    EXPECT_EQ(snap.total.cycles, phaseCycleSum(snap));
}

TEST(Profiler, PhasesTileTheTotal)
{
    support::prof::startSession();
    {
        const Scope a(Layer::kEmulate);
        spinCpu(3);
    }
    spinCpu(3);  // unscoped work -> "other"
    {
        const Scope b(Layer::kFetchSim);
        spinCpu(3);
    }
    {
        // Two rows charge "emulate"; the phase sums them.
        const Scope c(Layer::kEmulateProfile);
        spinCpu(1);
    }
    const auto snap = support::prof::snapshot();
    EXPECT_EQ(snap.total.cycles, phaseCycleSum(snap));
    EXPECT_EQ(snap.phase("emulate").enters, 2u);
    EXPECT_GT(snap.phase("other").cycles, 0u)
        << "unscoped session-thread time must land in other";
}

TEST(Profiler, ReportJsonIsValidAndTiles)
{
    support::prof::startSession();
    {
        const Scope scope(Layer::kBenchKernel);
        spinCpu(5);
    }
    support::MetricsRegistry metrics;
    metrics.addCounter("prof.work.ops_encoded", 1234);
    metrics.setGauge("fig05.ratio", 0.5);  // a gauge: never throughput
    const std::string json =
        support::prof::reportJson("test_bin", metrics);

    const auto doc = testjson::parse(json);
    EXPECT_EQ(doc.at("schema").str, "tepic-prof-v1");
    EXPECT_EQ(doc.at("name").str, "test_bin");
    const std::string source = doc.at("source").str;
    EXPECT_TRUE(source == "perf_event" || source == "thread_cputime")
        << source;
    EXPECT_EQ(doc.at("phases").object.size(),
              support::prof::phaseNames().size());
    double tiled = 0.0;
    for (const auto &[name, phase] : doc.at("phases").object)
        tiled += phase.at("cycles").number;
    EXPECT_DOUBLE_EQ(tiled, doc.at("total").at("cycles").number);
    // prof.work.* counters surface (prefix stripped); throughput is
    // derived from them and the phase times, one rate per non-zero
    // work counter plus ipc_host.
    EXPECT_DOUBLE_EQ(doc.at("work").at("ops_encoded").number, 1234.0);
    const auto &throughput = doc.at("throughput");
    const double kernel_s =
        doc.at("phases").at("bench_kernel").at("cpu_ns").number / 1e9;
    ASSERT_GT(kernel_s, 0.0);
    EXPECT_NEAR(throughput.at("ops_encoded_per_sec").number,
                1234.0 / kernel_s, 1e-6 * 1234.0 / kernel_s);
    EXPECT_TRUE(throughput.has("ipc_host"));
    EXPECT_EQ(throughput.object.size(), 2u);
}

TEST(Profiler, WorkCountersAreJobsInvariant)
{
    // The acceptance contract: identical builds must charge identical
    // prof.work.* regardless of engine parallelism. Two private
    // engines (separate caches -> both do the full build) with
    // different jobs counts must add the same ops_encoded delta.
    auto &m = support::MetricsRegistry::global();
    const auto &source = workloads::workloadByName("fir").source;
    const auto request = core::ArtifactRequest::parse("base,byte");

    const std::uint64_t before1 = m.counter("prof.work.ops_encoded");
    {
        core::ArtifactEngine engine(1);
        engine.build(source, request, {});
    }
    const std::uint64_t after1 = m.counter("prof.work.ops_encoded");
    {
        core::ArtifactEngine engine(4);
        engine.build(source, request, {});
    }
    const std::uint64_t after4 = m.counter("prof.work.ops_encoded");

    const std::uint64_t delta1 = after1 - before1;
    const std::uint64_t delta4 = after4 - after1;
    EXPECT_GT(delta1, 0u);
    EXPECT_EQ(delta1, delta4);
}

/**
 * core::runFetch charges each scheme's fetch CPU time to the PROF
 * session: the report carries a positive per-scheme rate for every
 * scheme that ran and no key for one that did not.
 */
TEST(Profiler, FetchThroughputPerSchemeThatRan)
{
    auto &metrics = support::MetricsRegistry::global();
    metrics.clear();
    core::ArtifactEngine engine(1);
    const auto artifacts =
        engine.build(workloads::workloadByName("fir").source,
                     core::ArtifactRequest::parse("base,tailored,trace"));

    support::prof::startSession();
    core::runFetch(*artifacts, fetch::SchemeClass::kBase);
    core::runFetch(*artifacts, fetch::SchemeClass::kTailored);
    support::prof::endSession();

    const auto doc =
        testjson::parse(support::prof::reportJson("test_bin", metrics));
    const auto &throughput = doc.at("throughput");
    EXPECT_GT(throughput.at("fetch.base.blocks_per_sec").number, 0.0);
    EXPECT_GT(throughput.at("fetch.tailored.blocks_per_sec").number, 0.0);
    EXPECT_FALSE(throughput.has("fetch.compressed.blocks_per_sec"));
}

TEST(Profiler, SamplingProducesCollapsedStacks)
{
    support::prof::startSession();
    ASSERT_TRUE(support::prof::startSampling(2000));
    EXPECT_FALSE(support::prof::startSampling(2000))
        << "second sampler must be refused";
    {
        const Scope scope(Layer::kBenchKernel);
        spinCpu(250);
    }
    support::prof::stopSampling();
    const auto snap = support::prof::snapshot();
    EXPECT_GE(snap.samplesTaken, 1u)
        << "250 ms of CPU at 2 kHz must catch at least one sample";
    const std::string collapsed = support::prof::collapsedStacks();
    ASSERT_FALSE(collapsed.empty());
    // Every line is "frame;frame;... count".
    std::size_t start = 0;
    while (start < collapsed.size()) {
        std::size_t end = collapsed.find('\n', start);
        if (end == std::string::npos)
            end = collapsed.size();
        const std::string line = collapsed.substr(start, end - start);
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10),
                  0u)
            << line;
        start = end + 1;
    }
}

} // namespace
