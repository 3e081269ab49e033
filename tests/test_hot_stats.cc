/**
 * @file
 * Dynamic program-behavior observability tests: the per-block
 * cycle/stall attribution must tile the simulator's own totals, the
 * branch-site ledger must tile the mispredict stall counter (with the
 * one-behind attribution and the unconsumed final prediction handled
 * exactly), the phase matrix columns must reproduce the per-block
 * fetch counts and its rows the epoch formula, the recorder's
 * architectural transparency (on/off bit-identity), and the
 * tepic-hot-v1 session report (determinism, shape keying, round-trip
 * through the test JSON parser).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compiler/driver.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/hot_stats.hh"
#include "isa/baseline.hh"
#include "schemes/huffman_scheme.hh"
#include "sim/emulator.hh"
#include "support/rng.hh"

#include "json_mini.hh"

namespace {

using namespace tepic;
using fetch::HotStats;
using fetch::HotStatsRecorder;
using fetch::SchemeClass;

/**
 * One fetch as simulateFetch hands it to the recorder: the fetch's
 * trace @p index, head @p block and cycle accounting, then the
 * direction it left by and whether the prediction it made for its
 * follower was right.
 */
fetch::FetchObservation
observe(std::uint64_t index, std::uint32_t block, std::uint32_t cycles,
        std::uint32_t stall, std::uint32_t mispredict_stall, bool taken,
        bool next_correct)
{
    fetch::FetchObservation fetch;
    fetch.index = index;
    fetch.block = block;
    fetch.cycles = cycles;
    fetch.stallCycles = stall;
    fetch.mispredictStall = mispredict_stall;
    fetch.branchTaken = taken;
    fetch.nextPredictionCorrect = next_correct;
    return fetch;
}

/**
 * A hand-driven 6-event trace over 4 static blocks (b0 b1 b0 b1 b0
 * b2), replayed through the recorder exactly the way simulateFetch
 * drives it: one observation per fetch, once its cycle accounting and
 * the prediction it makes at its end are known. Site b1 mispredicts
 * at event 1, so the 3-cycle repair bubble lands in event 2's stall
 * and must be charged back to b1; the final event's prediction (site
 * b2, wrong) is never consumed.
 */
HotStats
handTrace()
{
    HotStatsRecorder rec(4, 6);
    rec.onFetch(observe(0, 0, 2, 0, 0, true, true));
    rec.onFetch(observe(1, 1, 3, 1, 0, false, false));  // bubble next
    rec.onFetch(observe(2, 0, 5, 3, 3, true, true));  // b1's repair
    rec.onFetch(observe(3, 1, 3, 1, 0, true, true));
    rec.onFetch(observe(4, 0, 2, 0, 0, false, true));
    rec.onFetch(observe(5, 2, 5, 3, 0, true, false));  // never consumed
    return rec.finish();
}

TEST(HotRecorder, HandTraceTilesEveryCounter)
{
    const HotStats hs = handTrace();
    ASSERT_TRUE(hs.recorded);
    hs.assertTiling();

    EXPECT_EQ(hs.blocksSimulated, 6u);
    EXPECT_EQ(hs.cycles, 20u);
    EXPECT_EQ(hs.stallCycles, 8u);
    EXPECT_EQ(hs.executedBlocks(), 3u);

    const std::vector<std::uint64_t> fetches = {3, 2, 1, 0};
    const std::vector<std::uint64_t> cycles = {9, 6, 5, 0};
    const std::vector<std::uint64_t> stalls = {3, 2, 3, 0};
    EXPECT_EQ(hs.blockFetches, fetches);
    EXPECT_EQ(hs.blockCycles, cycles);
    EXPECT_EQ(hs.blockStalls, stalls);
}

TEST(HotRecorder, SiteLedgerChargesTheMispredictingSite)
{
    const HotStats hs = handTrace();
    EXPECT_EQ(hs.taken, 4u);
    EXPECT_EQ(hs.notTaken, 2u);
    EXPECT_EQ(hs.predictions(), hs.blocksSimulated);
    EXPECT_EQ(hs.mispredicts, 2u);
    EXPECT_EQ(hs.mispredictStallCycles, 3u);
    EXPECT_EQ(hs.unconsumedMispredicts, 1u);

    const std::vector<std::uint64_t> taken = {2, 1, 1, 0};
    const std::vector<std::uint64_t> not_taken = {1, 1, 0, 0};
    const std::vector<std::uint64_t> mis = {0, 1, 1, 0};
    // b1's wrong prediction stalls event 2 (a b0 fetch), but the
    // ledger charges the *site* that guessed wrong, not the victim.
    const std::vector<std::uint64_t> mis_stall = {0, 3, 0, 0};
    EXPECT_EQ(hs.siteTaken, taken);
    EXPECT_EQ(hs.siteNotTaken, not_taken);
    EXPECT_EQ(hs.siteMispredicts, mis);
    EXPECT_EQ(hs.siteMispredictStall, mis_stall);
}

TEST(HotRecorder, PhaseEpochsComeFromTheEventIndex)
{
    const HotStats hs = handTrace();
    ASSERT_EQ(HotStats::kPhaseEpochs, 16u);
    ASSERT_EQ(hs.phaseFetches.size(), 16u * 4u);
    // Event i of 6 lands in epoch i·16/6 — a pure function of the
    // index, never wall clock: b0 b1 b0 b1 b0 b2 in epochs
    // 0 2 5 8 10 13.
    std::vector<std::uint64_t> expected(16 * 4, 0);
    expected[0 * 4 + 0] = 1;
    expected[2 * 4 + 1] = 1;
    expected[5 * 4 + 0] = 1;
    expected[8 * 4 + 1] = 1;
    expected[10 * 4 + 0] = 1;
    expected[13 * 4 + 2] = 1;
    EXPECT_EQ(hs.phaseFetches, expected);
    for (std::uint32_t b = 0; b < 4; ++b) {
        std::uint64_t column = 0;
        for (unsigned e = 0; e < 16; ++e)
            column += hs.phaseFetches[e * 4 + b];
        EXPECT_EQ(column, hs.blockFetches[b]) << "phase column " << b;
    }
}

/**
 * Drive a recorder through fetches over distinct blocks, fetch i
 * starting at the trace position after blocks[0..i) (a fetch unit
 * when > 1), with @p expected_events as N and E = kPhaseEpochs: each
 * fetch must land in phase row min(E-1, index·E/N), or 0 when N == 0.
 */
void
expectFormulaPhases(std::uint64_t expected_events,
                    const std::vector<std::uint32_t> &blocks)
{
    SCOPED_TRACE(testing::Message() << expected_events << " events");
    constexpr unsigned epochs = HotStats::kPhaseEpochs;
    const auto statics = std::uint32_t(blocks.size());
    HotStatsRecorder rec(statics, expected_events);
    std::vector<std::uint64_t> expected(std::size_t(epochs) * statics,
                                        0);
    std::uint64_t pos = 0;
    for (std::uint32_t i = 0; i < statics; ++i) {
        const unsigned epoch =
            expected_events == 0
                ? 0
                : unsigned(std::min<std::uint64_t>(
                      epochs - 1, pos * epochs / expected_events));
        ++expected[std::size_t(epoch) * statics + i];
        rec.onFetch(observe(pos, i, 1, 0, 0, true, true));
        pos += blocks[i];
    }
    EXPECT_EQ(rec.finish().phaseFetches, expected);
}

TEST(HotRecorder, PhaseEpochsMatchTheFormula)
{
    // Fewer events than epochs.
    expectFormulaPhases(5, std::vector<std::uint32_t>(5, 1));
    expectFormulaPhases(1, {1});
    // Epochs that do not divide the events, no events.
    expectFormulaPhases(37, std::vector<std::uint32_t>(37, 1));
    expectFormulaPhases(100, std::vector<std::uint32_t>(100, 1));
    expectFormulaPhases(20, std::vector<std::uint32_t>(20, 1));
    expectFormulaPhases(0, std::vector<std::uint32_t>(10, 1));
    // Fetch units of 1-4 blocks.
    support::Rng rng(5);
    for (const std::size_t fetches : {10u, 40u, 90u}) {
        std::vector<std::uint32_t> blocks(fetches);
        std::uint64_t total = 0;
        for (std::uint32_t &b : blocks) {
            b = std::uint32_t(rng.range(1, 4));
            total += b;
        }
        expectFormulaPhases(total, blocks);
    }
}

TEST(HotRecorder, HotOrderAndCoverageAreDeterministic)
{
    const HotStats hs = handTrace();
    const std::vector<std::uint32_t> order = {0, 1, 2, 3};
    EXPECT_EQ(hs.hotOrder(), order);
    EXPECT_EQ(hs.topCoverage(1), 3u);
    EXPECT_EQ(hs.topCoverage(2), 5u);
    EXPECT_EQ(hs.topCoverage(3), 6u);
    // Monotone and saturating: k past the end covers everything.
    EXPECT_EQ(hs.topCoverage(4), hs.blocksSimulated);
    EXPECT_EQ(hs.topCoverage(99), hs.blocksSimulated);
    EXPECT_EQ(hs.topCoverage(0), 0u);
}

TEST(HotRecorder, MergeSumsSameShapeRecords)
{
    HotStats merged;  // unrecorded: adopts
    merged.merge(handTrace());
    merged.merge(handTrace());
    EXPECT_TRUE(merged.recorded);
    EXPECT_EQ(merged.blocksSimulated, 12u);
    EXPECT_EQ(merged.blockFetches[0], 6u);
    EXPECT_EQ(merged.siteMispredictStall[1], 6u);
    // One unconsumed final prediction per run: they add up.
    EXPECT_EQ(merged.unconsumedMispredicts, 2u);
    EXPECT_EQ(merged.mispredicts, 4u);
    merged.assertTiling();
}

// ---------------------------------------------------------------------------
// Whole-simulation coverage: simulateFetch must attach the recorder.

/** One compiled+emulated workload for the sim-level tests. */
struct SimFixture
{
    compiler::CompiledProgram compiled;
    sim::EmulationResult emu;
    isa::Image baseImage;
    schemes::CompressedImage full;

    SimFixture()
        : compiled(compiler::compileSource(R"(
            func f(x): int {
                if (x % 3 == 0) { return x * 2; }
                return x + 1;
            }
            func main(): int {
                var s = 0;
                for (var i = 0; i < 400; i = i + 1) { s = s + f(i); }
                return s;
            }
          )")),
          emu(sim::emulate(compiled.program, compiled.data)),
          baseImage(isa::buildBaselineImage(compiled.program)),
          full(schemes::compressFull(compiled.program))
    {
    }

    const isa::Image &
    imageFor(SchemeClass scheme) const
    {
        return scheme == SchemeClass::kCompressed ? full.image
                                                  : baseImage;
    }
};

TEST(FetchSimHotStats, TilesAndCrossChecksAllSchemes)
{
    SimFixture fx;
    for (auto scheme :
         {SchemeClass::kBase, SchemeClass::kCompressed,
          SchemeClass::kTailored}) {
        SCOPED_TRACE(fetch::schemeClassName(scheme));
        auto config = fetch::FetchConfig::paper(scheme);
        config.recordHotStats = true;
        const auto stats = fetch::simulateFetch(
            fx.imageFor(scheme), fx.compiled.program, fx.emu.trace,
            config);
        const HotStats &hs = stats.hotStats;
        ASSERT_TRUE(hs.recorded);
        hs.assertTiling();
        // Cross-checks against the simulator's own counters.
        EXPECT_EQ(hs.blocksSimulated, stats.blocksFetched);
        EXPECT_EQ(hs.cycles, stats.cycles);
        EXPECT_EQ(hs.stallCycles, stats.stallCycles);
        EXPECT_EQ(hs.mispredictStallCycles,
                  stats.mispredictStallCycles);
        // Every mispredict the site ledger saw is either one the
        // simulator repaired or the unconsumed final prediction.
        EXPECT_EQ(hs.mispredicts,
                  stats.predictionsWrong + hs.unconsumedMispredicts);
        EXPECT_LE(hs.unconsumedMispredicts, 1u);
        EXPECT_GT(hs.executedBlocks(), 0u);
        EXPECT_LE(hs.executedBlocks(), hs.staticBlocks);
        EXPECT_EQ(hs.topCoverage(hs.staticBlocks),
                  hs.blocksSimulated);
    }
}

/** The recorder is purely observational: switching it on must not
 *  move a single architectural counter. */
TEST(FetchSimHotStats, RecordingIsArchitecturallyInvisible)
{
    SimFixture fx;
    for (auto scheme :
         {SchemeClass::kBase, SchemeClass::kCompressed,
          SchemeClass::kTailored}) {
        SCOPED_TRACE(fetch::schemeClassName(scheme));
        const auto plain = fetch::simulateFetch(
            fx.imageFor(scheme), fx.compiled.program, fx.emu.trace,
            fetch::FetchConfig::paper(scheme));
        auto config = fetch::FetchConfig::paper(scheme);
        config.recordHotStats = true;
        const auto recorded = fetch::simulateFetch(
            fx.imageFor(scheme), fx.compiled.program, fx.emu.trace,
            config);
        EXPECT_FALSE(plain.hotStats.recorded);
        EXPECT_TRUE(recorded.hotStats.recorded);
        EXPECT_EQ(recorded.cycles, plain.cycles);
        EXPECT_EQ(recorded.stallCycles, plain.stallCycles);
        EXPECT_EQ(recorded.mispredictStallCycles,
                  plain.mispredictStallCycles);
        EXPECT_EQ(recorded.predictionsWrong, plain.predictionsWrong);
        EXPECT_EQ(recorded.l1Hits, plain.l1Hits);
        EXPECT_EQ(recorded.l1Misses, plain.l1Misses);
        EXPECT_EQ(recorded.busBitFlips, plain.busBitFlips);
        EXPECT_EQ(recorded.bytesTransferred, plain.bytesTransferred);
    }
}

/** Two identical runs produce bit-identical HotStats — the
 *  determinism the exact-gated HOT report relies on. */
TEST(FetchSimHotStats, RerunsAreBitIdentical)
{
    SimFixture fx;
    auto config = fetch::FetchConfig::paper(SchemeClass::kCompressed);
    config.recordHotStats = true;
    auto run = [&] {
        return fetch::simulateFetch(fx.full.image, fx.compiled.program,
                                    fx.emu.trace, config);
    };
    const HotStats a = run().hotStats;
    const HotStats b = run().hotStats;
    EXPECT_EQ(a.blockFetches, b.blockFetches);
    EXPECT_EQ(a.blockCycles, b.blockCycles);
    EXPECT_EQ(a.blockStalls, b.blockStalls);
    EXPECT_EQ(a.siteMispredicts, b.siteMispredicts);
    EXPECT_EQ(a.siteMispredictStall, b.siteMispredictStall);
    EXPECT_EQ(a.phaseFetches, b.phaseFetches);
    EXPECT_EQ(a.unconsumedMispredicts, b.unconsumedMispredicts);
}

// ---------------------------------------------------------------------------
// Session store + tepic-hot-v1 report.

struct SessionGuard
{
    SessionGuard() { fetch::hotstats::resetForTest(); }
    ~SessionGuard() { fetch::hotstats::resetForTest(); }
};

TEST(HotReport, RecordOrderDoesNotChangeTheReport)
{
    SessionGuard guard;
    const HotStats rec = handTrace();

    fetch::hotstats::startSession();
    fetch::hotstats::record("go", SchemeClass::kBase, rec);
    fetch::hotstats::record("gcc", SchemeClass::kCompressed, rec);
    const std::string forward = fetch::hotstats::reportJson("t");

    fetch::hotstats::startSession();
    fetch::hotstats::record("gcc", SchemeClass::kCompressed, rec);
    fetch::hotstats::record("go", SchemeClass::kBase, rec);
    const std::string backward = fetch::hotstats::reportJson("t");

    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward, fetch::hotstats::reportJson("t"));
}

TEST(HotReport, RoundTripsThroughJsonWithExactTiling)
{
    SessionGuard guard;
    fetch::hotstats::startSession();
    fetch::hotstats::record("go", SchemeClass::kCompressed,
                            handTrace());
    const auto doc =
        testjson::parse(fetch::hotstats::reportJson("unit"));
    EXPECT_EQ(doc.at("schema").str, "tepic-hot-v1");
    EXPECT_EQ(doc.at("name").str, "unit");
    const auto &scheme =
        doc.at("structure").at("workloads").at("go").at("compressed");
    const auto &totals = scheme.at("totals");
    EXPECT_EQ(totals.at("blocks_simulated").number, 6.0);
    EXPECT_EQ(totals.at("executed_blocks").number, 3.0);

    // Top rows + rest re-tile the totals in the rendered document.
    const auto &blocks = scheme.at("blocks");
    double top_fetches = 0;
    for (const auto &row : blocks.at("top").array)
        top_fetches += row.array.at(1).number;
    EXPECT_EQ(top_fetches + blocks.at("rest").at("fetches").number,
              totals.at("blocks_simulated").number);

    const auto &bt = scheme.at("branch_sites").at("totals");
    EXPECT_EQ(bt.at("predictions").number,
              bt.at("taken").number + bt.at("not_taken").number);
    EXPECT_EQ(bt.at("unconsumed_mispredicts").number, 1.0);

    const auto &phase = scheme.at("phase");
    ASSERT_EQ(phase.at("matrix").array.size(),
              std::size_t(scheme.at("config")
                              .at("phase_epochs")
                              .number));
}

TEST(HotReport, ShapeSweepsAreKeyedApartNotMerged)
{
    SessionGuard guard;
    fetch::hotstats::startSession();
    fetch::hotstats::record("go", SchemeClass::kBase, handTrace());
    // Same workload+scheme, different program shape: must not merge.
    HotStatsRecorder other(8, 4);
    other.onFetch(observe(0, 5, 1, 0, 0, true, true));
    fetch::hotstats::record("go", SchemeClass::kBase, other.finish());
    const auto doc = testjson::parse(fetch::hotstats::reportJson("t"));
    const auto &workloads = doc.at("structure").at("workloads");
    EXPECT_TRUE(workloads.has("go"));
    EXPECT_TRUE(workloads.has("go@B8xE16"));
    EXPECT_EQ(workloads.at("go").at("base").at("config").at(
                                             "static_blocks").number,
              4.0);
    EXPECT_EQ(workloads.at("go@B8xE16")
                  .at("base")
                  .at("config")
                  .at("static_blocks")
                  .number,
              8.0);
}

TEST(HotReport, DisabledSessionRecordsNothing)
{
    SessionGuard guard;
    EXPECT_FALSE(fetch::hotstats::enabled());
    fetch::hotstats::record("go", SchemeClass::kBase, handTrace());
    const auto doc = testjson::parse(fetch::hotstats::reportJson("t"));
    EXPECT_TRUE(doc.at("structure").at("workloads").object.empty());
}

// An empty report stays a valid document, and an unrecorded HotStats
// is inert.

TEST(HotReport, EmptyReportIsValidJson)
{
    fetch::hotstats::resetForTest();
    const auto doc =
        testjson::parse(fetch::hotstats::reportJson("empty"));
    EXPECT_EQ(doc.at("schema").str, "tepic-hot-v1");
    EXPECT_TRUE(doc.at("structure").at("workloads").isObject());
}

TEST(HotStatsStruct, UnrecordedIsInert)
{
    HotStats stats;
    EXPECT_FALSE(stats.recorded);
    stats.assertTiling();  // no-op, must not fire
    HotStats other;
    stats.merge(other);  // merging nothing into nothing
    EXPECT_FALSE(stats.recorded);
    EXPECT_EQ(stats.mispredictRate(), 0.0);
    EXPECT_EQ(stats.executedBlocks(), 0u);
    EXPECT_EQ(stats.topCoverage(5), 0u);
}

} // namespace
