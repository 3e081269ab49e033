/**
 * @file
 * Tests for support::sched — task-graph scheduling observability.
 * Covers the recording primitives (declaration-order ids, sentinel
 * dependency dropping, session gating), the analysis invariants the
 * tepic-sched-v1 schema promises (DAG acyclicity, duration-weighted
 * critical path, per-worker timelines that tile the build window),
 * the determinism contract (the report's "structure" section is
 * byte-identical for any --jobs value), and the ArtifactEngine
 * integration (compile -> scheme -> att/decoder edges, cache hits as
 * zero-duration records, sched.* metrics counters).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact_engine.hh"
#include "json_mini.hh"
#include "support/metrics.hh"
#include "support/sched.hh"
#include "support/scope.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
namespace sched = support::sched;

using sched::kNoTask;

sched::TaskDecl
decl(std::string label, std::vector<std::uint64_t> deps = {},
     bool cache_hit = false)
{
    sched::TaskDecl d;
    d.label = label;
    d.kind = "test";
    d.workload = "unit";
    d.deps = std::move(deps);
    d.cacheHit = cache_hit;
    return d;
}

/** Run task @p id for roughly @p ms milliseconds of wall time. */
void
runFor(std::uint64_t id, unsigned ms)
{
    const support::Scope scope(support::Layer::kCompile, id);
    if (ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * The report's exact-gated region: everything between the "structure"
 * key and the "timing" key. Byte-compared across --jobs values.
 */
std::string
structureSlice(const std::string &json)
{
    const auto begin = json.find("\"structure\"");
    const auto end = json.find("\"timing\"");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return json.substr(begin, end - begin);
}

/** Assert the WorkerSummary tiling invariant against @p analysis. */
void
expectWorkersTile(const sched::Analysis &analysis)
{
    for (const auto &w : analysis.workers) {
        EXPECT_EQ(w.rampNs + w.busyNs + w.queueEmptyNs + w.depStallNs,
                  w.endNs - analysis.windowStartNs)
            << "worker " << w.name << " timeline does not tile";
        EXPECT_GE(w.startNs, analysis.windowStartNs);
        EXPECT_LE(w.endNs, analysis.windowEndNs);
    }
}

TEST(SchedDisabled, EntryPointsAreInertWithoutASession)
{
    sched::resetForTest();
    EXPECT_FALSE(sched::enabled());
    EXPECT_EQ(sched::declareTask(decl("t")), kNoTask);
    // A Scope on the sentinel id must be a no-op, not a crash.
    {
        const support::Scope scope(support::Layer::kCompile, kNoTask);
    }
    sched::taskStarted(0);
    sched::taskFinished(0);
    const auto analysis = sched::analyze();
    EXPECT_TRUE(analysis.tasks.empty());
    EXPECT_TRUE(analysis.workers.empty());
    EXPECT_TRUE(analysis.acyclic);
}

TEST(SchedDisabled, ExportIsKeyStableWhenNeverStarted)
{
    // A binary that never records must not grow sched.* keys — the
    // same key-stability rule the prof exporter follows.
    sched::resetForTest();
    support::MetricsRegistry metrics;
    sched::exportMetricsTo(metrics);
    EXPECT_FALSE(metrics.hasCounterWithPrefix("sched."));
}

TEST(Sched, IdsFollowDeclarationOrderAndSentinelDepsAreDropped)
{
    sched::resetForTest();
    sched::startSession(1);
    const std::uint64_t a = sched::declareTask(decl("a"));
    const std::uint64_t b = sched::declareTask(decl("b", {a, kNoTask}));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);

    const auto analysis = sched::analyze();
    ASSERT_EQ(analysis.tasks.size(), 2u);
    // The sentinel (an id issued while recording was off) must not
    // survive as an edge.
    EXPECT_EQ(analysis.tasks[b].decl.deps,
              std::vector<std::uint64_t>{a});
    EXPECT_EQ(analysis.edgeCount, 1u);
    EXPECT_TRUE(analysis.acyclic);
    sched::endSession();
}

TEST(Sched, CriticalPathFollowsTheLongestChain)
{
    // Diamond: 0 -> {1, 2} -> 3, with 1 much longer than 2. The
    // critical path must route through 1.
    sched::resetForTest();
    sched::startSession(1);
    const std::uint64_t t0 = sched::declareTask(decl("t0"));
    const std::uint64_t t1 = sched::declareTask(decl("t1", {t0}));
    const std::uint64_t t2 = sched::declareTask(decl("t2", {t0}));
    const std::uint64_t t3 = sched::declareTask(decl("t3", {t1, t2}));
    runFor(t0, 1);
    runFor(t1, 20);
    runFor(t2, 0);
    runFor(t3, 1);

    const auto analysis = sched::analyze();
    EXPECT_TRUE(analysis.acyclic);
    EXPECT_EQ(analysis.edgeCount, 4u);
    EXPECT_EQ(analysis.criticalPath,
              (std::vector<std::uint64_t>{t0, t1, t3}));
    // Serial execution respects the edges, so the chain bound holds:
    // critical path <= makespan, hence achieved <= achievable.
    EXPECT_GT(analysis.criticalPathNs, 0u);
    EXPECT_LE(analysis.criticalPathNs, analysis.makespanNs);
    EXPECT_LE(analysis.totalWorkNs, analysis.makespanNs);
    EXPECT_LE(analysis.achievedSpeedup,
              analysis.achievableSpeedup + 1e-9);
    // Everything ran on the calling thread -> exactly one "main"
    // worker whose timeline tiles the window.
    ASSERT_EQ(analysis.workers.size(), 1u);
    EXPECT_EQ(analysis.workers[0].name, "main");
    EXPECT_EQ(analysis.workers[0].tasksRun, 4u);
    expectWorkersTile(analysis);
    sched::endSession();
}

TEST(Sched, CacheHitTasksAreZeroDurationAndNeverRun)
{
    sched::resetForTest();
    sched::startSession(1);
    const std::uint64_t miss = sched::declareTask(decl("m"));
    runFor(miss, 1);
    sched::declareTask(decl("h", {}, /*cache_hit=*/true));

    const auto analysis = sched::analyze();
    ASSERT_EQ(analysis.tasks.size(), 2u);
    EXPECT_EQ(analysis.cacheHits, 1u);
    const auto &hit = analysis.tasks[1];
    EXPECT_TRUE(hit.decl.cacheHit);
    EXPECT_FALSE(hit.ran);
    EXPECT_EQ(hit.durationNs(), 0u);
    EXPECT_EQ(hit.worker, sched::kNoWorker);

    // In the report the unran task has worker null and cache_hit true.
    const auto doc = testjson::parse(sched::reportJson("unit"));
    EXPECT_EQ(doc.at("structure").at("cache_hits").number, 1.0);
    const auto &stask = doc.at("structure").at("tasks").array.at(1);
    EXPECT_TRUE(stask.at("cache_hit").boolean);
    const auto &ttask = doc.at("timing").at("tasks").array.at(1);
    EXPECT_TRUE(ttask.at("worker").isNull());
    EXPECT_FALSE(ttask.at("ran").boolean);
    sched::endSession();
}

TEST(Sched, EngineBuildProducesAValidAcyclicDag)
{
    sched::resetForTest();
    sched::startSession(4);
    core::ArtifactEngine engine(4);
    engine.buildMany({
        core::BuildRequest{workloads::workloadByName("fir").source,
                           core::ArtifactRequest::all(), {}, "fir"},
        core::BuildRequest{workloads::workloadByName("matmul").source,
                           core::ArtifactRequest::all(), {},
                           "matmul"},
    });
    sched::endSession();

    const auto analysis = sched::analyze();
    EXPECT_TRUE(analysis.acyclic);
    EXPECT_EQ(analysis.cacheHits, 0u);
    ASSERT_FALSE(analysis.tasks.empty());

    std::uint64_t compiles = 0;
    std::uint64_t decoders = 0;
    for (const auto &t : analysis.tasks) {
        EXPECT_TRUE(t.ran) << t.decl.label;
        EXPECT_LE(t.enqueueNs, t.startNs) << t.decl.label;
        EXPECT_LE(t.startNs, t.finishNs) << t.decl.label;
        // Edges point at earlier declarations, and every non-compile
        // task hangs off its workload's compile stage.
        for (std::uint64_t dep : t.decl.deps)
            EXPECT_LT(dep, t.id);
        if (t.decl.kind == "compile") {
            ++compiles;
            EXPECT_TRUE(t.decl.deps.empty());
        } else {
            EXPECT_FALSE(t.decl.deps.empty()) << t.decl.label;
        }
        if (t.decl.kind == "decoder") {
            ++decoders;
            // base + full + tailored images feed the pre-warm.
            EXPECT_EQ(t.decl.deps.size(), 3u);
        }
    }
    EXPECT_EQ(compiles, 2u);
    EXPECT_EQ(decoders, 2u);

    // The critical path is a real dependency chain rooted at a
    // compile task.
    ASSERT_FALSE(analysis.criticalPath.empty());
    EXPECT_EQ(analysis.tasks[analysis.criticalPath.front()].decl.kind,
              "compile");
    for (std::size_t i = 1; i < analysis.criticalPath.size(); ++i) {
        const auto &deps =
            analysis.tasks[analysis.criticalPath[i]].decl.deps;
        EXPECT_NE(std::find(deps.begin(), deps.end(),
                            analysis.criticalPath[i - 1]),
                  deps.end());
    }
}

TEST(Sched, WorkerTimelinesTileAndBusyIntervalsDoNotOverlap)
{
    sched::resetForTest();
    sched::startSession(4);
    core::ArtifactEngine engine(4);
    engine.buildMany({
        core::BuildRequest{workloads::workloadByName("fir").source,
                           core::ArtifactRequest::all(), {}, "fir"},
        core::BuildRequest{workloads::workloadByName("matmul").source,
                           core::ArtifactRequest::all(), {},
                           "matmul"},
    });
    sched::endSession();

    const auto analysis = sched::analyze();
    ASSERT_FALSE(analysis.workers.empty());
    expectWorkersTile(analysis);

    for (const auto &w : analysis.workers) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
        for (const auto &t : analysis.tasks)
            if (t.ran && t.worker == w.worker)
                busy.emplace_back(t.startNs, t.finishNs);
        std::sort(busy.begin(), busy.end());
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < busy.size(); ++i) {
            total += busy[i].second - busy[i].first;
            if (i) {
                EXPECT_GE(busy[i].first, busy[i - 1].second)
                    << w.name << " runs two tasks at once";
            }
        }
        EXPECT_EQ(total, w.busyNs) << w.name;
        EXPECT_EQ(busy.size(), w.tasksRun) << w.name;
    }
}

TEST(Sched, SecondBuildOfTheSameKeyIsACacheHitTask)
{
    sched::resetForTest();
    sched::startSession(2);
    core::ArtifactEngine engine(2);
    const auto &source = workloads::workloadByName("fir").source;
    engine.build(source, core::ArtifactRequest::all(), {}, "fir");
    engine.build(source, core::ArtifactRequest::all(), {}, "fir");
    sched::endSession();

    const auto analysis = sched::analyze();
    EXPECT_EQ(analysis.cacheHits, 1u);
    const auto &hit = analysis.tasks.back();
    EXPECT_EQ(hit.decl.kind, "hit");
    EXPECT_EQ(hit.decl.workload, "fir");
    EXPECT_FALSE(hit.ran);
}

TEST(Sched, StructureSectionIsByteIdenticalAcrossJobs)
{
    // The acceptance contract: everything under "structure" (ids,
    // labels, kinds, edges, cache-hit flags) is exact-gated across
    // --jobs; only "timing" may move.
    const auto run = [](unsigned jobs) {
        sched::resetForTest();
        sched::startSession(jobs);
        core::ArtifactEngine engine(jobs);
        engine.buildMany({
            core::BuildRequest{
                workloads::workloadByName("fir").source,
                core::ArtifactRequest::all(), {}, "fir"},
            core::BuildRequest{
                workloads::workloadByName("matmul").source,
                core::ArtifactRequest::all(), {}, "matmul"},
        });
        sched::endSession();
        return sched::reportJson("unit");
    };
    const std::string serial = run(1);
    const std::string parallel = run(8);
    EXPECT_EQ(structureSlice(serial), structureSlice(parallel));
    // The sections differ overall (worker timelines, timestamps) —
    // the equality above must not be vacuous.
    EXPECT_NE(serial, parallel);
}

TEST(Sched, ReportJsonParsesAndSectionsAgree)
{
    sched::resetForTest();
    sched::startSession(2);
    core::ArtifactEngine engine(2);
    engine.build(workloads::workloadByName("fir").source,
                 core::ArtifactRequest::all(), {}, "fir");
    sched::endSession();

    const auto doc = testjson::parse(sched::reportJson("unit_fir"));
    EXPECT_EQ(doc.at("schema").str, "tepic-sched-v1");
    EXPECT_EQ(doc.at("name").str, "unit_fir");
    EXPECT_EQ(doc.at("jobs").number, 2.0);

    const auto &structure = doc.at("structure");
    EXPECT_TRUE(structure.at("acyclic").boolean);
    const std::size_t count =
        std::size_t(structure.at("task_count").number);
    EXPECT_EQ(structure.at("tasks").array.size(), count);
    EXPECT_EQ(doc.at("timing").at("tasks").array.size(), count);

    const auto &timing = doc.at("timing");
    EXPECT_GT(timing.at("makespan_ns").number, 0.0);
    EXPECT_GE(timing.at("speedup").at("achievable").number,
              timing.at("speedup").at("achieved").number - 1e-9);
    EXPECT_FALSE(timing.at("parallelism").at("concurrency")
                     .array.empty());
    EXPECT_FALSE(timing.at("workers").array.empty());
    for (const auto &w : timing.at("workers").array) {
        const auto &idle = w.at("idle");
        const double tiled = idle.at("ramp_ns").number +
                             idle.at("queue_empty_ns").number +
                             idle.at("dep_stall_ns").number +
                             w.at("busy_ns").number;
        const double window =
            w.at("end_ns").number -
            timing.at("window").at("start_ns").number;
        EXPECT_DOUBLE_EQ(tiled, window) << w.at("id").str;
    }
}

TEST(Sched, ExportMetricsMatchesTheAnalysis)
{
    sched::resetForTest();
    sched::startSession(2);
    core::ArtifactEngine engine(2);
    const auto &source = workloads::workloadByName("fir").source;
    engine.build(source, core::ArtifactRequest::all(), {}, "fir");
    engine.build(source, core::ArtifactRequest::all(), {}, "fir");
    sched::endSession();

    const auto analysis = sched::analyze();
    support::MetricsRegistry metrics;
    sched::exportMetricsTo(metrics);
    EXPECT_EQ(metrics.counter("sched.tasks"), analysis.tasks.size());
    EXPECT_EQ(metrics.counter("sched.edges"), analysis.edgeCount);
    EXPECT_EQ(metrics.counter("sched.cache_hits"),
              analysis.cacheHits);
    EXPECT_EQ(metrics.counter("sched.tasks.compile"), 1u);
    EXPECT_EQ(metrics.counter("sched.tasks.hit"), 1u);
    EXPECT_EQ(metrics.counter("sched.tasks.decoder"), 1u);

    // Per-kind counts sum to the task total.
    std::uint64_t by_kind = 0;
    for (const auto &name : metrics.counterNames())
        if (name.size() > 12 &&
            name.compare(0, 12, "sched.tasks.") == 0)
            by_kind += metrics.counter(name);
    EXPECT_EQ(by_kind, metrics.counter("sched.tasks"));
}

} // namespace
