/**
 * @file
 * Tests for support::prof — the host-performance profiler. Covers
 * the scoped phase attribution (self-time, nesting), the tiling
 * invariant (Σ phase cycles == total, like the SizeLedger tiles an
 * image's bits), the tepic-prof-v1 report, the determinism contract
 * (work counters and key sets identical for any --jobs value), and
 * the sampling profiler's collapsed-stack output.
 *
 * The whole suite compiles in both configurations: under
 * -DTEPIC_ENABLE_TRACING=OFF the profiler folds to no-op stubs and
 * the *Disabled tests assert exactly that (ProfScope is an empty
 * class, reports come back all-zero with source "disabled").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <type_traits>

#include "core/artifact_engine.hh"
#include "json_mini.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using support::prof::Phase;
using support::prof::ProfScope;

/** Burn roughly @p ms milliseconds of this thread's CPU time. */
[[maybe_unused]] std::uint64_t
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

[[maybe_unused]] std::uint64_t
phaseCycleSum(const support::prof::Snapshot &snap)
{
    std::uint64_t sum = 0;
    for (unsigned p = 0; p < support::prof::kNumPhases; ++p)
        sum += snap.phases[p].cycles;
    return sum;
}

TEST(ProfilerPhaseNames, CoverTheClosedEnum)
{
    // The report's phase key set is the full enum — a closed, always-
    // emitted set is what makes PROF key sets --jobs-deterministic.
    for (unsigned p = 0; p < support::prof::kNumPhases; ++p) {
        const char *name = support::prof::phaseName(Phase(p));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

#if TEPIC_PROFILING_ENABLED

TEST(Profiler, ScopeChargesItsPhase)
{
    support::prof::resetForTest();
    support::prof::startSession();
    {
        ProfScope scope(Phase::kFrontend);
        spinCpu(5);
    }
    const auto snap = support::prof::snapshot();
    const auto &fe = snap.phases[unsigned(Phase::kFrontend)];
    EXPECT_EQ(fe.enters, 1u);
    EXPECT_GT(fe.cycles, 0u);
    EXPECT_GT(fe.cpuNs, 0u);
    // Untouched phases stay zero-entered (but still reported).
    EXPECT_EQ(snap.phases[unsigned(Phase::kFetchSim)].enters, 0u);
}

TEST(Profiler, NestedScopesAttributeSelfTime)
{
    support::prof::resetForTest();
    support::prof::startSession();
    {
        ProfScope outer(Phase::kBackend);
        spinCpu(4);
        {
            ProfScope inner(Phase::kOptimise);
            spinCpu(12);
        }
        spinCpu(4);
    }
    const auto snap = support::prof::snapshot();
    const auto &outer = snap.phases[unsigned(Phase::kBackend)];
    const auto &inner = snap.phases[unsigned(Phase::kOptimise)];
    EXPECT_EQ(outer.enters, 1u);
    EXPECT_EQ(inner.enters, 1u);
    // Self-time: the inner 12 ms belong to kOptimise alone; kBackend
    // keeps only its own ~8 ms. Generous bounds — CI timers jitter.
    EXPECT_GT(inner.cpuNs, outer.cpuNs);
    // No double counting: the two phases plus scope overhead must not
    // exceed the session's wall CPU (tiling catches inflation).
    EXPECT_EQ(snap.total.cycles, phaseCycleSum(snap));
}

TEST(Profiler, PhasesTileTheTotal)
{
    support::prof::resetForTest();
    support::prof::startSession();
    {
        ProfScope a(Phase::kEmulate);
        spinCpu(3);
    }
    spinCpu(3);  // unscoped work -> Phase::kOther
    {
        ProfScope b(Phase::kFetchSim);
        spinCpu(3);
    }
    const auto snap = support::prof::snapshot();
    EXPECT_EQ(snap.total.cycles, phaseCycleSum(snap));
    EXPECT_GT(snap.phases[unsigned(Phase::kOther)].cycles, 0u)
        << "unscoped session-thread time must land in kOther";
}

TEST(Profiler, ReportJsonIsValidAndTiles)
{
    support::prof::resetForTest();
    support::prof::startSession();
    {
        ProfScope scope(Phase::kBenchKernel);
        spinCpu(5);
    }
    support::MetricsRegistry metrics;
    metrics.addCounter("prof.work.ops_encoded", 1234);
    metrics.setGauge("prof.ops_encoded_per_sec", 456.0);
    metrics.setGauge("fig05.ratio", 0.5);  // non-prof: excluded
    const std::string json =
        support::prof::reportJson("test_bin", metrics);

    const auto doc = testjson::parse(json);
    EXPECT_EQ(doc.at("schema").str, "tepic-prof-v1");
    EXPECT_EQ(doc.at("name").str, "test_bin");
    const std::string source = doc.at("source").str;
    EXPECT_TRUE(source == "perf_event" || source == "thread_cputime")
        << source;
    EXPECT_EQ(doc.at("phases").object.size(),
              std::size_t(support::prof::kNumPhases));
    double tiled = 0.0;
    for (const auto &[name, phase] : doc.at("phases").object)
        tiled += phase.at("cycles").number;
    EXPECT_DOUBLE_EQ(tiled, doc.at("total").at("cycles").number);
    // prof.work.* counters surface (prefix stripped); prof gauges
    // surface under throughput; foreign gauges stay out.
    EXPECT_DOUBLE_EQ(doc.at("work").at("ops_encoded").number, 1234.0);
    EXPECT_DOUBLE_EQ(
        doc.at("throughput").at("ops_encoded_per_sec").number, 456.0);
    EXPECT_FALSE(doc.at("throughput").has("fig05.ratio"));
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

TEST(Profiler, SamplingProducesCollapsedStacks)
{
    support::prof::resetForTest();
    support::prof::startSession();
    ASSERT_TRUE(support::prof::startSampling(2000));
    EXPECT_FALSE(support::prof::startSampling(2000))
        << "second sampler must be refused";
    {
        ProfScope scope(Phase::kBenchKernel);
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

#else // !TEPIC_PROFILING_ENABLED

TEST(ProfilerDisabled, ScopeIsAnEmptyClass)
{
    // The whole point of the kill switch: zero footprint.
    EXPECT_TRUE(std::is_empty_v<ProfScope>);
    EXPECT_FALSE(support::prof::available());
    EXPECT_FALSE(support::prof::startSampling());
    EXPECT_TRUE(support::prof::collapsedStacks().empty());
}

TEST(ProfilerDisabled, ReportIsStubButValid)
{
    support::MetricsRegistry metrics;
    metrics.addCounter("prof.work.ops_encoded", 7);
    const std::string json =
        support::prof::reportJson("stub_bin", metrics);
    const auto doc = testjson::parse(json);
    EXPECT_EQ(doc.at("schema").str, "tepic-prof-v1");
    EXPECT_EQ(doc.at("source").str, "disabled");
    EXPECT_DOUBLE_EQ(doc.at("total").at("cycles").number, 0.0);
    EXPECT_EQ(doc.at("phases").object.size(),
              std::size_t(support::prof::kNumPhases));
    // Deterministic work counters still surface in the stub report.
    EXPECT_DOUBLE_EQ(doc.at("work").at("ops_encoded").number, 7.0);
}

#endif // TEPIC_PROFILING_ENABLED

} // namespace
