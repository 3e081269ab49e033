/**
 * @file
 * Tests for the Chrome trace-event layer (support/trace) and the
 * fetch simulator's per-fetch view: span nesting, per-thread buffer
 * flushing, JSON round trips through the mini parser, disabled-mode
 * cost, and the golden self-consistency check that the HOT record's
 * per-block attribution sums exactly to the aggregate FetchStats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "fetch/fetch_sim.hh"
#include "json_mini.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
namespace trace = support::trace;

/** Find the first event with @p name; fails the test when absent. */
testjson::Value
findEvent(const testjson::Value &doc, const std::string &name)
{
    for (const auto &event : doc.at("traceEvents").array)
        if (event.at("name").str == name)
            return event;
    ADD_FAILURE() << "no trace event named '" << name << "'";
    return {};
}

// Must run before any start() in this binary: while tracing is
// disabled, span and instant calls may not materialize a thread
// buffer or enqueue anything.
TEST(Trace, DisabledModeRecordsNothing)
{
    ASSERT_FALSE(trace::enabled());
    bool worker_has_buffer = true;
    std::thread worker([&] {
        {
            TEPIC_TRACE_SPAN("disabled.span");
            trace::instant("disabled.instant");
        }
        worker_has_buffer = trace::threadHasBuffer();
    });
    worker.join();
    EXPECT_FALSE(worker_has_buffer);
    EXPECT_EQ(trace::pendingEvents(), 0u);
}

TEST(Trace, SpanNestingRoundTrip)
{
    trace::start("");
    {
        TEPIC_TRACE_SPAN("outer", "test");
        {
            TEPIC_TRACE_SPAN("inner", "test");
        }
        trace::instant("mark", "test");
    }
    const auto doc = testjson::parse(trace::stopToJson());
    EXPECT_FALSE(trace::enabled());

    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
    EXPECT_EQ(doc.at("traceEvents").array.size(), 3u);

    const auto outer = findEvent(doc, "outer");
    const auto inner = findEvent(doc, "inner");
    EXPECT_EQ(outer.at("ph").str, "X");
    EXPECT_EQ(outer.at("cat").str, "test");
    EXPECT_EQ(outer.at("pid").number, 1.0);
    // The inner span starts after and ends before the outer one.
    EXPECT_GE(inner.at("ts").number, outer.at("ts").number);
    EXPECT_LE(inner.at("ts").number + inner.at("dur").number,
              outer.at("ts").number + outer.at("dur").number + 1e-9);
    // Same thread: identical tid.
    EXPECT_EQ(inner.at("tid").number, outer.at("tid").number);

    const auto mark = findEvent(doc, "mark");
    EXPECT_EQ(mark.at("ph").str, "i");
    EXPECT_EQ(mark.at("s").str, "t");
}

TEST(Trace, SpanArgsEmitted)
{
    trace::start("");
    {
        trace::Span span("tagged", "test", "{\"workload\":\"fir\"}");
    }
    const auto doc = testjson::parse(trace::stopToJson());
    const auto tagged = findEvent(doc, "tagged");
    EXPECT_EQ(tagged.at("args").at("workload").str, "fir");
}

TEST(Trace, ThreadBuffersFlushAtStop)
{
    trace::start("");
    {
        TEPIC_TRACE_SPAN("main.span", "test");
    }
    // The worker's buffer is destroyed at thread exit — its events
    // must retire into the registry, not vanish.
    std::thread worker([] { TEPIC_TRACE_SPAN("worker.span", "test"); });
    worker.join();
    EXPECT_EQ(trace::pendingEvents(), 2u);

    const auto doc = testjson::parse(trace::stopToJson());
    const auto main_span = findEvent(doc, "main.span");
    const auto worker_span = findEvent(doc, "worker.span");
    EXPECT_NE(main_span.at("tid").number, worker_span.at("tid").number);
}

TEST(Trace, PoolDrainOnDestructRetainsWorkerSpans)
{
    // Regression: spans emitted by ThreadPool workers while the pool
    // drains its queue on destruction must all survive into the
    // report. The workers' thread-local buffers retire as the threads
    // exit (inside ~ThreadPool's join), which races with nothing here
    // — but the retirement path must run with the session still
    // started, or the drained tasks' spans would be discarded.
    constexpr int kRounds = 10;
    constexpr int kTasks = 32;
    for (int round = 0; round < kRounds; ++round) {
        trace::start("");
        {
            support::ThreadPool pool(4);
            for (int i = 0; i < kTasks; ++i) {
                pool.submit([] {
                    TEPIC_TRACE_SPAN("drain.span", "test");
                });
            }
            // Pool destroyed with tasks still queued/in flight:
            // drain-on-destruct runs every one of them first.
        }
        const auto doc = testjson::parse(trace::stopToJson());
        int spans = 0;
        for (const auto &event : doc.at("traceEvents").array)
            if (event.at("name").str == "drain.span")
                ++spans;
        ASSERT_EQ(spans, kTasks) << "round " << round;
        ASSERT_EQ(trace::pendingEvents(), 0u) << "round " << round;
    }
}

TEST(Trace, SpanStraddlingStopIsDropped)
{
    trace::start("");
    auto *straddler = new trace::Span("straddle", "test");
    const auto doc = testjson::parse(trace::stopToJson());
    delete straddler;  // destroyed after stop: must not record
    EXPECT_EQ(doc.at("traceEvents").array.size(), 0u);
    EXPECT_EQ(trace::pendingEvents(), 0u);
}

TEST(Trace, StopWritesFile)
{
    const std::string path = "test_trace_out.json";
    trace::start(path);
    {
        TEPIC_TRACE_SPAN("file.span", "test");
    }
    trace::stop();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto doc = testjson::parse(buffer.str());
    findEvent(doc, "file.span");
    std::remove(path.c_str());
}

TEST(Trace, RestartClearsPreviousSession)
{
    trace::start("");
    trace::instant("first.session", "test");
    trace::start("");  // restart discards the buffered event
    trace::instant("second.session", "test");
    const auto doc = testjson::parse(trace::stopToJson());
    ASSERT_EQ(doc.at("traceEvents").array.size(), 1u);
    EXPECT_EQ(doc.at("traceEvents").array[0].at("name").str,
              "second.session");
}

// --- the fetch simulator's per-fetch view (independent of the Chrome
// --- layer): the HOT record, built from one observation per fetch

const core::Artifacts &
firArtifacts()
{
    static const core::Artifacts artifacts =
        core::ArtifactEngine::buildUncached(
            workloads::workloadByName("fir").source,
            core::ArtifactRequest{core::ArtifactKind::kBase,
                                  core::ArtifactKind::kTrace},
            {});
    return artifacts;
}

/**
 * Golden self-consistency check: the stall causes tile the aggregate
 * stall cycles, and the HOT record's per-block attribution tiles the
 * aggregate stats exactly — every fetch, cycle and stall lands on
 * exactly one static block.
 */
TEST(FetchTrace, RecordsTileAggregateStats)
{
    const auto &a = firArtifacts();
    auto config = fetch::FetchConfig::paper(fetch::SchemeClass::kBase);
    config.recordHotStats = true;
    const auto stats = fetch::simulateFetch(
        a.baseImage(), a.compiled.program, a.trace(), config);

    ASSERT_GT(stats.blocksFetched, 0u);
    EXPECT_EQ(stats.cycles, stats.idealCycles + stats.stallCycles);
    EXPECT_EQ(stats.mispredictStallCycles + stats.refillStallCycles +
                  stats.decodeStallCycles + stats.atbStallCycles,
              stats.stallCycles);

    const fetch::HotStats &hs = stats.hotStats;
    ASSERT_TRUE(hs.recorded);
    std::uint64_t fetches = 0;
    std::uint64_t cycles = 0;
    std::uint64_t stalls = 0;
    for (std::uint32_t b = 0; b < hs.staticBlocks; ++b) {
        fetches += hs.blockFetches[b];
        cycles += hs.blockCycles[b];
        stalls += hs.blockStalls[b];
    }
    EXPECT_EQ(fetches, stats.blocksFetched);
    EXPECT_EQ(cycles, stats.cycles);
    EXPECT_EQ(stalls, stats.stallCycles);
    EXPECT_EQ(hs.mispredictStallCycles, stats.mispredictStallCycles);
}

} // namespace
