/**
 * @file
 * Cache-behavior observability tests: the 3C miss classification
 * (compulsory / capacity / conflict must tile L1 misses exactly, with
 * hand-built traces hitting each class), the Olken-style reuse
 * distance tracker checked against brute-force oracles across
 * compactions and at scale, line-lifetime (dead-on-fill) accounting,
 * the epoch clock against its formula, whole-sim tiling for all three
 * fetch organisations, whole CACHE and HOT records of real traces
 * against a naive rebuild (3C included), the recorder's architectural
 * transparency (on/off bit-identity), and the tepic-cache-v1 session
 * report (determinism, geometry keying, round-trip through the test
 * JSON parser).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "compiler/driver.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "fetch/att.hh"
#include "fetch/banked_cache.hh"
#include "fetch/cache_stats.hh"
#include "fetch/epoch_clock.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/hot_stats.hh"
#include "fetch/l0_buffer.hh"
#include "fetch/superblock.hh"
#include "isa/baseline.hh"
#include "schemes/huffman_scheme.hh"
#include "sim/emulator.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

#include "json_mini.hh"

namespace {

using namespace tepic;
using fetch::CacheConfig;
using fetch::CacheStats;
using fetch::CacheStatsRecorder;
using fetch::CacheStreamRecorder;
using fetch::ReuseDistanceTracker;
using fetch::SchemeClass;

/**
 * A BankedCache with both halves of the recorder attached, driven the
 * way simulateFetch drives them: every access is one fetch of its own
 * block — the walk's beginFetch and the stream's reuse sample, an L1
 * block access, then the access's outcome to each half.
 */
struct Rig
{
    fetch::BankedCache cache;
    CacheStatsRecorder rec;
    CacheStreamRecorder stream;
    std::uint32_t lineBytes;
    std::uint32_t nextFetch = 0;

    explicit Rig(const CacheConfig &config,
                 std::uint64_t expected_events = 1024)
        : cache(config), rec(config, expected_events), stream(config),
          lineBytes(config.lineBytes)
    {
        cache.setObserver(&rec);
    }

    bool
    access(std::uint32_t addr, std::uint32_t size = 1)
    {
        const std::uint32_t first = addr / lineBytes;
        const std::uint32_t last = (addr + size - 1) / lineBytes;
        rec.beginFetch(nextFetch);
        stream.onFetch(nextFetch);
        ++nextFetch;
        const bool hit = cache.accessLines(first, last);
        rec.onL1Access(hit);
        stream.onL1Access(first, last, hit);
        return hit;
    }

    /** The sealed record, every fetch an ATB hit (simulateFetch
     *  fills in the kernel's totals), its tiling asserted. */
    CacheStats
    finish()
    {
        CacheStats stats = rec.finish();
        stream.finish(stats);
        stats.atbHits = stats.fetches;
        stats.assertTiling();
        return stats;
    }
};

/**
 * Never-repeated addresses: every miss touches fresh lines, so the
 * whole miss column lands in the compulsory class.
 */
TEST(ThreeC, ColdStreamIsAllCompulsory)
{
    Rig rig({4, 2, 16});
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_FALSE(rig.access(i * 16, 16));
    const CacheStats stats = rig.finish();
    EXPECT_EQ(stats.misses, 32u);
    EXPECT_EQ(stats.compulsory, 32u);
    EXPECT_EQ(stats.capacity, 0u);
    EXPECT_EQ(stats.conflict, 0u);
    EXPECT_EQ(stats.reuseCold, 32u);
}

/**
 * Two lines that map to the same set of a 2-set direct-mapped cache
 * but fit a fully-associative cache of the same total capacity:
 * after the cold pass every ping-pong miss is a conflict miss.
 */
TEST(ThreeC, SameSetPingPongIsConflict)
{
    Rig rig({2, 1, 16});  // 2 lines total; lines 0 and 2 share set 0
    const std::uint32_t a = 0, b = 32;
    EXPECT_FALSE(rig.access(a, 16));
    EXPECT_FALSE(rig.access(b, 16));
    for (int round = 0; round < 5; ++round) {
        EXPECT_FALSE(rig.access(a, 16));
        EXPECT_FALSE(rig.access(b, 16));
    }
    const CacheStats stats = rig.finish();
    EXPECT_EQ(stats.compulsory, 2u);
    EXPECT_EQ(stats.conflict, 10u);
    EXPECT_EQ(stats.capacity, 0u);
    // Both contenders live in set 0; set 1 never sees an event.
    EXPECT_EQ(stats.setAccesses[1], 0u);
    EXPECT_GT(stats.setEvictions[0], 0u);
}

/**
 * Three lines cycled through a 2-line cache: even the
 * fully-associative shadow cannot hold the working set, so the warm
 * misses split between capacity (shadow missed too) and the one
 * same-set hit the real cache keeps.
 */
TEST(ThreeC, WorkingSetLargerThanCacheIsCapacity)
{
    Rig rig({2, 1, 16});
    // Lines 0, 1, 2: set map 0,1,0. Cycle 0,16,32 twice.
    EXPECT_FALSE(rig.access(0, 16));   // compulsory
    EXPECT_FALSE(rig.access(16, 16));  // compulsory
    EXPECT_FALSE(rig.access(32, 16));  // compulsory (evicts line 0)
    EXPECT_FALSE(rig.access(0, 16));   // shadow holds {1,2}: capacity
    EXPECT_TRUE(rig.access(16, 16));   // line 1 undisturbed in set 1
    EXPECT_FALSE(rig.access(32, 16));  // shadow holds {1,0}: capacity
    const CacheStats stats = rig.finish();
    EXPECT_EQ(stats.accesses, 6u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 5u);
    EXPECT_EQ(stats.compulsory, 3u);
    EXPECT_EQ(stats.capacity, 2u);
    EXPECT_EQ(stats.conflict, 0u);
}

/**
 * A fully-associative cache is its own shadow: with single-line
 * blocks the two LRU stacks stay in lockstep, so no miss can ever be
 * classified as conflict.
 */
TEST(ThreeC, FullyAssociativeNeverConflicts)
{
    Rig rig({1, 8, 16});
    support::Rng rng(42);
    for (int i = 0; i < 2000; ++i)
        rig.access(std::uint32_t(rng.below(24)) * 16, 16);
    const CacheStats stats = rig.finish();
    EXPECT_GT(stats.misses, stats.compulsory);  // working set > 8
    EXPECT_EQ(stats.conflict, 0u);
    EXPECT_EQ(stats.misses,
              stats.compulsory + stats.capacity + stats.conflict);
}

/** Multi-line blocks classify on pre-access state, not their own
 *  earlier lines, and first_touch wins over the shadow probe. */
TEST(ThreeC, MultiLineBlocksClassifyOnPreAccessState)
{
    Rig rig({4, 2, 16});
    // A 3-line block: one access, one compulsory miss (its own first
    // line must not make the later ones look warm).
    EXPECT_FALSE(rig.access(0, 48));
    // A block overlapping 2 touched + 1 fresh line: still compulsory.
    EXPECT_FALSE(rig.access(16, 48));
    const CacheStats stats = rig.finish();
    EXPECT_EQ(stats.compulsory, 2u);
    EXPECT_EQ(stats.capacity + stats.conflict, 0u);
}

/** The reuse tracker against a brute-force oracle, across enough
 *  accesses to force several position-space compactions. */
TEST(ReuseDistance, MatchesBruteForceAcrossCompactions)
{
    ReuseDistanceTracker tracker(12);
    support::Rng rng(7);
    std::vector<std::uint32_t> history;
    for (int i = 0; i < 1000; ++i) {
        const auto block = std::uint32_t(rng.below(12));
        // Oracle: distinct blocks strictly between this access and
        // the previous access of the same block.
        std::uint64_t expected = ReuseDistanceTracker::kCold;
        for (std::size_t j = history.size(); j-- > 0;) {
            if (history[j] == block) {
                std::set<std::uint32_t> distinct(
                    history.begin() + std::ptrdiff_t(j) + 1,
                    history.end());
                expected = distinct.size();
                break;
            }
        }
        ASSERT_EQ(tracker.access(block), expected)
            << "access " << i << " of block " << block;
        history.push_back(block);
    }
    // The position space (>= 64 slots) must have wrapped many times.
    EXPECT_GT(tracker.compactions(), 5u);
}

/**
 * The tracker against a move-to-front oracle at scale: 600 distinct
 * blocks over 50 000 accesses, as loops with random excursions. An
 * 8-block start (one 64-position word) makes the run cross word
 * boundaries, grow the position space and compact many times.
 */
TEST(ReuseDistance, MatchesBruteForceAtScale)
{
    constexpr std::uint32_t kBlocks = 600;
    constexpr std::size_t kAccesses = 50000;
    support::Rng rng(20);
    std::vector<std::uint32_t> stream;
    while (stream.size() < kAccesses) {
        // A loop body of consecutive blocks, a few trips round it,
        // with an occasional excursion to a random block.
        const auto base = std::uint32_t(rng.below(kBlocks));
        const auto length = std::uint32_t(rng.range(2, 40));
        const std::int64_t trips = rng.range(1, 12);
        for (std::int64_t trip = 0; trip < trips; ++trip) {
            for (std::uint32_t i = 0; i < length; ++i) {
                stream.push_back((base + i) % kBlocks);
                if (rng.below(16) == 0)
                    stream.push_back(std::uint32_t(rng.below(kBlocks)));
            }
        }
    }
    stream.resize(kAccesses);

    ReuseDistanceTracker tracker(8);
    std::vector<std::uint32_t> recency;  // most recent first
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::uint32_t block = stream[i];
        std::uint64_t expected = ReuseDistanceTracker::kCold;
        const auto it = std::find(recency.begin(), recency.end(), block);
        if (it != recency.end()) {
            expected = std::uint64_t(it - recency.begin());
            recency.erase(it);
        }
        recency.insert(recency.begin(), block);
        ASSERT_EQ(tracker.access(block), expected)
            << "access " << i << " of block " << block;
    }
    EXPECT_EQ(recency.size(), kBlocks);  // every block was touched
    EXPECT_GT(tracker.compactions(), 10u);
}

TEST(ReuseDistance, DistanceZeroAndColdAreDistinct)
{
    ReuseDistanceTracker tracker(4);
    EXPECT_EQ(tracker.access(3), ReuseDistanceTracker::kCold);
    EXPECT_EQ(tracker.access(3), 0u);  // immediate re-access
    EXPECT_EQ(tracker.access(5), ReuseDistanceTracker::kCold);
    EXPECT_EQ(tracker.access(3), 1u);  // one distinct block between
}

/** Dead-on-fill: a line evicted before any re-reference. */
TEST(LineLifetime, DeadOnFillCountsZeroUseEvictions)
{
    Rig rig({1, 1, 16});
    rig.access(0, 16);   // fill line 0
    rig.access(16, 16);  // evicts line 0 with zero uses: dead
    rig.access(16, 16);  // hit: line 1 now has one use
    rig.access(0, 16);   // evicts line 1 with one use: not dead
    const CacheStats stats = rig.finish();
    EXPECT_EQ(stats.lineFills, 3u);
    EXPECT_EQ(stats.lineEvictions, 2u);
    EXPECT_EQ(stats.deadOnFill, 1u);
    EXPECT_EQ(stats.residentAtEnd, 1u);
    const auto &bins = stats.evictionUseHistogram.bins();
    ASSERT_EQ(bins.size(), 2u);
    EXPECT_EQ(bins.at(0), 1u);
    EXPECT_EQ(bins.at(1), 1u);
}

/** The per-set vectors and heatmap matrices tile each other. */
TEST(Recorder, HeatmapColumnsSumToPerSetVectors)
{
    constexpr unsigned kEpochs = CacheStats::kHeatmapEpochs;
    Rig rig({8, 2, 16}, 500);
    support::Rng rng(11);
    for (int i = 0; i < 500; ++i)
        rig.access(std::uint32_t(rng.below(64)) * 16, 16);
    const CacheStats stats = rig.finish();
    ASSERT_EQ(stats.heatAccesses.size(), kEpochs * 8u);
    std::uint64_t heat_total = 0;
    for (unsigned s = 0; s < 8; ++s) {
        std::uint64_t col = 0;
        for (unsigned e = 0; e < kEpochs; ++e)
            col += stats.heatAccesses[e * 8 + s];
        EXPECT_EQ(col, stats.setAccesses[s]) << "set " << s;
        heat_total += col;
    }
    EXPECT_GT(heat_total, 0u);
    // Events spread across epochs, not just the first row.
    std::uint64_t last_epoch = 0;
    for (unsigned s = 0; s < 8; ++s)
        last_epoch += stats.heatAccesses[(kEpochs - 1) * 8 + s];
    EXPECT_GT(last_epoch, 0u);
}

/** min(E-1, pos·E/N), 0 when N == 0: the epoch of trace position
 *  @p pos that the recorders' epoch clock must reproduce. */
unsigned
formulaEpoch(std::uint64_t pos, unsigned epochs, std::uint64_t n)
{
    return n == 0 ? 0
                  : unsigned(std::min<std::uint64_t>(epochs - 1,
                                                     pos * epochs / n));
}

/**
 * The clock's threshold walk against the formula, over fetches that
 * start at increasing trace positions: fetch i walks blocks[i] events
 * (a fetch unit when > 1).
 */
void
expectClockMatchesFormula(unsigned epochs, std::uint64_t n,
                          const std::vector<std::uint32_t> &blocks)
{
    SCOPED_TRACE(testing::Message() << epochs << " epochs over " << n
                                    << " events");
    fetch::EpochClock clock(epochs, n);
    std::uint64_t pos = 0;
    for (const std::uint32_t walked : blocks) {
        ASSERT_EQ(clock.at(pos), formulaEpoch(pos, epochs, n))
            << "position " << pos;
        pos += walked;
    }
}

TEST(EpochClock, MatchesTheFormula)
{
    // Fewer events than epochs.
    expectClockMatchesFormula(16, 5, std::vector<std::uint32_t>(5, 1));
    expectClockMatchesFormula(7, 1, {1});
    // Epochs that do not divide the events, one epoch, no events.
    expectClockMatchesFormula(8, 37, std::vector<std::uint32_t>(37, 1));
    expectClockMatchesFormula(3, 100,
                              std::vector<std::uint32_t>(100, 1));
    expectClockMatchesFormula(16, 20, std::vector<std::uint32_t>(20, 1));
    expectClockMatchesFormula(1, 20, std::vector<std::uint32_t>(20, 1));
    expectClockMatchesFormula(4, 0, std::vector<std::uint32_t>(10, 1));
    // Fetch units of 1-4 blocks.
    support::Rng rng(5);
    for (const unsigned epochs : {6u, 16u, 50u}) {
        std::vector<std::uint32_t> blocks(40);
        std::uint64_t total = 0;
        for (std::uint32_t &b : blocks) {
            b = std::uint32_t(rng.range(1, 4));
            total += b;
        }
        expectClockMatchesFormula(epochs, total, blocks);
    }
}

/**
 * Line events per (epoch, set), with each fetch's epoch set by the
 * caller from formulaEpoch() — the reference the recorder's
 * threshold walk must reproduce — plus the per-set totals and the
 * eviction use counts, counted directly.
 */
struct EpochOracle final : fetch::CacheLineObserver
{
    unsigned sets;
    unsigned epoch = 0;
    std::vector<std::uint64_t> accesses, fills, evictions;
    std::vector<std::uint64_t> setAccesses, setHits, setFills;
    std::vector<std::uint64_t> setEvictions, setDeadOnFill;
    support::Histogram uses{CacheStats::kUseHistogramOverflow};

    EpochOracle(unsigned sets_, unsigned epochs)
        : sets(sets_), accesses(std::size_t(sets_) * epochs, 0),
          fills(accesses), evictions(accesses), setAccesses(sets_, 0),
          setHits(setAccesses), setFills(setAccesses),
          setEvictions(setAccesses), setDeadOnFill(setAccesses)
    {
    }

    void
    onLineHit(std::uint64_t, std::uint32_t set) override
    {
        ++accesses[std::size_t(epoch) * sets + set];
        ++setAccesses[set];
        ++setHits[set];
    }

    void
    onLineFill(std::uint64_t, std::uint32_t set) override
    {
        ++accesses[std::size_t(epoch) * sets + set];
        ++fills[std::size_t(epoch) * sets + set];
        ++setAccesses[set];
        ++setFills[set];
    }

    void
    onLineEvict(std::uint64_t, std::uint32_t set,
                std::uint64_t use_count) override
    {
        ++evictions[std::size_t(epoch) * sets + set];
        ++setEvictions[set];
        if (use_count == 0)
            ++setDeadOnFill[set];
        uses.sample(std::int64_t(use_count));
    }
};

/**
 * Drive a recorder and the oracle through the same fetches, fetch i
 * walking blocks[i] trace events (a fetch unit when > 1), with
 * @p expected_events as N; the heatmaps must be equal cell for cell.
 */
void
expectFormulaEpochs(std::uint64_t expected_events,
                    const std::vector<std::uint32_t> &blocks)
{
    SCOPED_TRACE(testing::Message() << expected_events << " events");
    constexpr unsigned epochs = CacheStats::kHeatmapEpochs;
    const CacheConfig geometry{4, 1, 16};
    fetch::BankedCache cache(geometry), reference(geometry);
    CacheStatsRecorder rec(geometry, expected_events);
    EpochOracle oracle(geometry.sets, epochs);
    cache.setObserver(&rec);
    reference.setObserver(&oracle);

    support::Rng rng(1000 + expected_events);
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        oracle.epoch = formulaEpoch(pos, epochs, expected_events);
        const auto first = std::uint32_t(rng.below(24));
        const std::uint32_t last = first + std::uint32_t(rng.below(3));
        rec.beginFetch(pos);
        const bool hit = cache.accessLines(first, last);
        reference.accessLines(first, last);
        rec.onL1Access(hit);
        pos += blocks[i];
    }
    const CacheStats stats = rec.finish();
    EXPECT_EQ(stats.heatAccesses, oracle.accesses);
    EXPECT_EQ(stats.heatFills, oracle.fills);
    EXPECT_EQ(stats.heatEvictions, oracle.evictions);
}

TEST(Recorder, EpochThresholdsMatchTheFormulaWhenFewerEventsThanEpochs)
{
    expectFormulaEpochs(5, std::vector<std::uint32_t>(5, 1));
    expectFormulaEpochs(1, {1});
    expectFormulaEpochs(15, std::vector<std::uint32_t>(15, 1));
}

TEST(Recorder, EpochThresholdsMatchTheFormulaOffMultiples)
{
    expectFormulaEpochs(37, std::vector<std::uint32_t>(37, 1));
    expectFormulaEpochs(100, std::vector<std::uint32_t>(100, 1));
    expectFormulaEpochs(20, std::vector<std::uint32_t>(20, 1));
    // No expected events: everything stays in epoch 0.
    expectFormulaEpochs(0, std::vector<std::uint32_t>(10, 1));
}

TEST(Recorder, EpochThresholdsMatchTheFormulaUnderFetchUnits)
{
    support::Rng rng(5);
    for (const std::size_t fetches : {10u, 40u, 90u}) {
        std::vector<std::uint32_t> blocks(fetches);
        std::uint64_t total = 0;
        for (std::uint32_t &b : blocks) {
            b = std::uint32_t(rng.range(1, 4));
            total += b;
        }
        expectFormulaEpochs(total, blocks);
    }
}

/** The flat use-count array folds into the histogram exactly. */
TEST(LineLifetime, EvictionUseHistogramCountsEveryUseCount)
{
    // 1 set, 1 way: every new line evicts the previous one, which was
    // hit `uses` times first — including past the overflow at 64.
    Rig rig({1, 1, 16});
    const std::vector<std::uint64_t> uses = {0, 1, 3, 63, 64, 70, 3};
    for (std::size_t i = 0; i < uses.size(); ++i) {
        const auto addr = std::uint32_t(i * 16);
        rig.access(addr, 16);
        for (std::uint64_t u = 0; u < uses[i]; ++u)
            rig.access(addr, 16);
    }
    rig.access(std::uint32_t(uses.size() * 16), 16);  // evict the last
    const CacheStats stats = rig.finish();
    const auto &bins = stats.evictionUseHistogram.bins();
    EXPECT_EQ(stats.evictionUseHistogram.total(), uses.size());
    EXPECT_EQ(stats.evictionUseHistogram.overflow(), 2u);
    const std::map<std::int64_t, std::uint64_t> want = {
        {0, 1}, {1, 1}, {3, 2}, {63, 1}};
    EXPECT_EQ(bins, want);
    EXPECT_EQ(stats.deadOnFill, 1u);
}

/** merge(): sums counters; an unrecorded target adopts the source. */
TEST(Recorder, MergeSumsSameGeometryRecords)
{
    auto run = [] {
        Rig rig({2, 1, 16});
        rig.access(0, 16);
        rig.access(32, 16);
        rig.access(0, 16);
        return rig.finish();
    };
    const CacheStats one = run();
    CacheStats merged;  // unrecorded: adopts
    merged.merge(one);
    merged.merge(run());
    EXPECT_TRUE(merged.recorded);
    EXPECT_EQ(merged.fetches, 2 * one.fetches);
    EXPECT_EQ(merged.misses, 2 * one.misses);
    EXPECT_EQ(merged.conflict, 2 * one.conflict);
    EXPECT_EQ(merged.setAccesses[0], 2 * one.setAccesses[0]);
    EXPECT_EQ(merged.reuseLog2Histogram.total(),
              2 * one.reuseLog2Histogram.total());
    merged.assertTiling();
}

// ---------------------------------------------------------------------------
// Whole-simulation coverage.

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

/**
 * A trace that enters a fetch unit off its head trips the kernel's
 * walk, the memory thread's and (recording on) the stream reader's on
 * their first fetch. The memory thread runs in every simulation, so
 * with recording on or off the panic must reach the caller as
 * std::logic_error and never hang: a failed walk publishes its
 * failure, which releases every reader, and the kernel's unwinding
 * joins both threads rather than abandoning them (which would
 * std::terminate).
 */
TEST(FetchSimCacheStats, KernelPanicJoinsReplay)
{
    SimFixture fx;
    fetch::FetchUnitConfig unit_config;
    unit_config.maxBlocks = 4;
    const fetch::FetchUnits units = fetch::formFetchUnits(
        fx.compiled.program, fx.emu.trace, unit_config);
    const sim::TraceView events = fx.emu.trace.view();
    std::size_t member = 0;
    while (member < events.size() && units.isHead(events.block(member)))
        ++member;
    ASSERT_NE(member, events.size()) << "no multi-block unit formed";
    const auto &words = fx.emu.trace.events;
    const sim::BlockTrace side_entered{
        {words.begin() + std::ptrdiff_t(member), words.end()}};

    for (auto scheme : {SchemeClass::kBase, SchemeClass::kCompressed}) {
        for (const bool record : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << fetch::schemeClassName(scheme)
                         << (record ? " recorded" : ""));
            auto config = fetch::FetchConfig::paper(scheme);
            config.units = &units;
            config.recordCacheStats = record;
            config.recordHotStats = record;
            EXPECT_THROW(fetch::simulateFetch(fx.imageFor(scheme),
                                              fx.compiled.program,
                                              side_entered, config),
                         std::logic_error);
        }
    }
}

// Recorded simulations: simulateFetch must attach the recorder.

TEST(FetchSimCacheStats, TilesAndCrossChecksAllSchemes)
{
    SimFixture fx;
    for (auto scheme :
         {SchemeClass::kBase, SchemeClass::kCompressed,
          SchemeClass::kTailored}) {
        SCOPED_TRACE(fetch::schemeClassName(scheme));
        auto config = fetch::FetchConfig::paper(scheme);
        config.recordCacheStats = true;
        const auto stats = fetch::simulateFetch(
            fx.imageFor(scheme), fx.compiled.program, fx.emu.trace,
            config);
        const CacheStats &cs = stats.cacheStats;
        ASSERT_TRUE(cs.recorded);
        cs.assertTiling();
        // Cross-checks against the simulator's own counters. Note
        // the simulator counts an L0 bypass as an L1 hit for the
        // cycle model; the recorder keeps the levels apart.
        EXPECT_EQ(cs.fetches, stats.blocksFetched);
        EXPECT_EQ(cs.l0Bypasses, stats.l0Hits);
        EXPECT_EQ(cs.misses, stats.l1Misses);
        EXPECT_EQ(cs.hits, stats.l1Hits - stats.l0Hits);
        EXPECT_EQ(cs.atbHits, stats.atbHits);
        EXPECT_EQ(cs.atbMisses, stats.atbMisses);
        EXPECT_EQ(cs.misses,
                  cs.compulsory + cs.capacity + cs.conflict);
        EXPECT_GT(cs.compulsory, 0u);  // cold start is never free
        EXPECT_EQ(cs.sets, config.cache.sets);
        EXPECT_EQ(cs.lineBytes, config.cache.lineBytes);
    }
}

/** The recorder is purely observational: switching it on must not
 *  move a single architectural counter. */
TEST(FetchSimCacheStats, RecordingIsArchitecturallyInvisible)
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
        config.recordCacheStats = true;
        const auto recorded = fetch::simulateFetch(
            fx.imageFor(scheme), fx.compiled.program, fx.emu.trace,
            config);
        EXPECT_FALSE(plain.cacheStats.recorded);
        EXPECT_TRUE(recorded.cacheStats.recorded);
        EXPECT_EQ(recorded.cycles, plain.cycles);
        EXPECT_EQ(recorded.stallCycles, plain.stallCycles);
        EXPECT_EQ(recorded.l1Hits, plain.l1Hits);
        EXPECT_EQ(recorded.l1Misses, plain.l1Misses);
        EXPECT_EQ(recorded.l0Hits, plain.l0Hits);
        EXPECT_EQ(recorded.atbHits, plain.atbHits);
        EXPECT_EQ(recorded.busBitFlips, plain.busBitFlips);
        EXPECT_EQ(recorded.bytesTransferred, plain.bytesTransferred);
        EXPECT_EQ(recorded.predictionsWrong, plain.predictionsWrong);
    }
}

/** Two identical runs produce bit-identical CacheStats — the
 *  determinism the exact-gated CACHE report relies on. */
TEST(FetchSimCacheStats, RerunsAreBitIdentical)
{
    SimFixture fx;
    auto config = fetch::FetchConfig::paper(SchemeClass::kCompressed);
    config.recordCacheStats = true;
    auto run = [&] {
        return fetch::simulateFetch(fx.full.image, fx.compiled.program,
                                    fx.emu.trace, config);
    };
    const CacheStats a = run().cacheStats;
    const CacheStats b = run().cacheStats;
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.compulsory, b.compulsory);
    EXPECT_EQ(a.capacity, b.capacity);
    EXPECT_EQ(a.conflict, b.conflict);
    EXPECT_EQ(a.reuseLog2Histogram.bins(),
              b.reuseLog2Histogram.bins());
    EXPECT_EQ(a.heatAccesses, b.heatAccesses);
    EXPECT_EQ(a.heatFills, b.heatFills);
    EXPECT_EQ(a.heatEvictions, b.heatEvictions);
}

/** @p got equals @p want field for field. */
void
expectSameRecord(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.recorded, want.recorded);
    EXPECT_EQ(got.sets, want.sets);
    EXPECT_EQ(got.ways, want.ways);
    EXPECT_EQ(got.lineBytes, want.lineBytes);
    EXPECT_EQ(got.fetches, want.fetches);
    EXPECT_EQ(got.l0Bypasses, want.l0Bypasses);
    EXPECT_EQ(got.atbHits, want.atbHits);
    EXPECT_EQ(got.atbMisses, want.atbMisses);
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.compulsory, want.compulsory);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.conflict, want.conflict);
    EXPECT_EQ(got.lineFills, want.lineFills);
    EXPECT_EQ(got.lineEvictions, want.lineEvictions);
    EXPECT_EQ(got.deadOnFill, want.deadOnFill);
    EXPECT_EQ(got.residentAtEnd, want.residentAtEnd);
    EXPECT_EQ(got.evictionUseHistogram.bins(),
              want.evictionUseHistogram.bins());
    EXPECT_EQ(got.evictionUseHistogram.overflow(),
              want.evictionUseHistogram.overflow());
    EXPECT_EQ(got.reuseCold, want.reuseCold);
    EXPECT_EQ(got.reuseMax, want.reuseMax);
    EXPECT_EQ(got.reuseLog2Histogram.bins(),
              want.reuseLog2Histogram.bins());
    EXPECT_EQ(got.reuseLog2Histogram.overflow(),
              want.reuseLog2Histogram.overflow());
    EXPECT_EQ(got.setAccesses, want.setAccesses);
    EXPECT_EQ(got.setHits, want.setHits);
    EXPECT_EQ(got.setFills, want.setFills);
    EXPECT_EQ(got.setEvictions, want.setEvictions);
    EXPECT_EQ(got.setDeadOnFill, want.setDeadOnFill);
    EXPECT_EQ(got.heatAccesses, want.heatAccesses);
    EXPECT_EQ(got.heatFills, want.heatFills);
    EXPECT_EQ(got.heatEvictions, want.heatEvictions);
}

/**
 * The record of the memory walk and the stream reader against the
 * kernel and a serial oracle, under plain fetch and multi-block fetch
 * units (with side exits), for base and compressed (the L0 path): its L1/L0
 * counts must equal the kernel's counters, and the whole record must
 * equal the two recorder halves driven here, fetch by fetch, over one
 * L0 buffer and L1 of the test's own.
 */
TEST(FetchSimCacheStats, UnitsReplayMatchesKernel)
{
    SimFixture fx;
    const isa::VliwProgram &program = fx.compiled.program;
    const sim::TraceView events = fx.emu.trace.view();
    fetch::FetchUnitConfig unit_config;
    unit_config.maxBlocks = 4;
    const fetch::FetchUnits units =
        fetch::formFetchUnits(program, fx.emu.trace, unit_config);
    for (const fetch::FetchUnits *partition :
         {static_cast<const fetch::FetchUnits *>(nullptr), &units}) {
        for (auto scheme : {SchemeClass::kBase, SchemeClass::kCompressed}) {
            SCOPED_TRACE(testing::Message()
                         << fetch::schemeClassName(scheme)
                         << (partition ? " units" : " plain"));
            const isa::Image &image = fx.imageFor(scheme);
            auto config = fetch::FetchConfig::paper(scheme);
            config.units = partition;
            config.recordCacheStats = true;
            const auto stats = fetch::simulateFetch(image, program,
                                                    fx.emu.trace, config);
            const CacheStats &cs = stats.cacheStats;
            ASSERT_TRUE(cs.recorded);
            EXPECT_EQ(cs.fetches, stats.fetches);
            EXPECT_EQ(cs.l0Bypasses, stats.l0Hits);
            EXPECT_EQ(cs.accesses, stats.fetches - stats.l0Hits);
            EXPECT_EQ(cs.hits, stats.l1Hits - stats.l0Hits);
            EXPECT_EQ(cs.misses, stats.l1Misses);
            if (partition) {
                EXPECT_LT(stats.fetches, stats.blocksFetched);
                EXPECT_GT(stats.sideExits, 0u);
            }
            if (scheme == SchemeClass::kCompressed) {
                EXPECT_GT(stats.l0Hits, 0u);
            }

            const fetch::Att att =
                fetch::Att::build(image, program, partition);
            const unsigned line_bytes = config.cache.lineBytes;
            fetch::L0Buffer l0(config.l0CapacityOps);
            fetch::BankedCache l1(config.cache);
            CacheStatsRecorder oracle(config.cache, events.size());
            CacheStreamRecorder stream_oracle(config.cache);
            l1.setObserver(&oracle);
            for (std::size_t first = 0; first < events.size();) {
                const isa::BlockId head = events.block(first);
                // A unit streams on along its fallthrough chain up to
                // its tail.
                std::size_t last = first;
                if (partition) {
                    const isa::BlockId tail =
                        head + partition->lengthOf[head] - 1;
                    while (events.block(last) != tail &&
                           events.next(last) == events.block(last) + 1)
                        ++last;
                }
                const fetch::AttEntry &entry = att.entry(head);
                oracle.beginFetch(first);
                stream_oracle.onFetch(head);
                if (scheme == SchemeClass::kCompressed &&
                    l0.access(head, entry.numOps)) {
                    oracle.onL0Bypass();
                } else {
                    const std::uint32_t line_first =
                        entry.byteAddress / line_bytes;
                    const std::uint32_t line_last =
                        (entry.byteAddress + entry.byteSize - 1) /
                        line_bytes;
                    const bool hit = l1.accessLines(line_first, line_last);
                    oracle.onL1Access(hit);
                    stream_oracle.onL1Access(line_first, line_last, hit);
                }
                first = last + 1;
            }
            CacheStats want = oracle.finish();
            stream_oracle.finish(want);
            want.atbHits = stats.atbHits;
            want.atbMisses = stats.atbMisses;
            expectSameRecord(cs, want);
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-record oracle: a real trace's CACHE and HOT records against a
// naive rebuild from the trace alone.

/**
 * simulateFetch with both recorders on fir and gcc, every scheme at
 * FetchConfig::paper, against a reference rebuilt in the test from
 * the trace: move-to-front reuse distances in a plain map, the L0 and
 * L1 replayed into an EpochOracle with formula epochs, the 3C split
 * from a std::list LRU of sets x ways lines and a first-touch set
 * (independent of fetch::LruStack), and the HOT phase matrix from the
 * formula.
 */
TEST(WholeRecord, MatchesANaiveRebuildOfTheTrace)
{
    core::ArtifactEngine engine(1);
    for (const char *name : {"fir", "gcc"}) {
        SCOPED_TRACE(name);
        const auto artifacts = engine.build(
            workloads::workloadByName(name).source,
            {core::ArtifactKind::kBase, core::ArtifactKind::kFull,
             core::ArtifactKind::kTailored, core::ArtifactKind::kTrace});
        const isa::VliwProgram &program = artifacts->compiled.program;
        const sim::TraceView events = artifacts->trace().view();
        const std::uint64_t n = events.size();

        // Plain fetch: one fetch per trace event, so the reuse stream
        // is the event stream whatever the scheme.
        std::vector<std::uint32_t> recency;  // most recent first
        std::map<std::int64_t, std::uint64_t> reuse_bins;
        std::uint64_t reuse_cold = 0, reuse_max = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const isa::BlockId block = events.block(i);
            const auto it = std::find(recency.begin(), recency.end(), block);
            if (it == recency.end()) {
                ++reuse_cold;
            } else {
                const auto distance = std::uint64_t(it - recency.begin());
                reuse_max = std::max(reuse_max, distance);
                std::int64_t key = 0;
                while ((std::uint64_t(1) << key) <= distance)
                    ++key;
                ++reuse_bins[key];
                recency.erase(it);
            }
            recency.insert(recency.begin(), block);
        }

        for (auto scheme :
             {SchemeClass::kBase, SchemeClass::kCompressed,
              SchemeClass::kTailored}) {
            SCOPED_TRACE(fetch::schemeClassName(scheme));
            const isa::Image &image = core::imageFor(*artifacts, scheme);
            auto config = fetch::FetchConfig::paper(scheme);
            config.recordCacheStats = true;
            config.recordHotStats = true;
            const auto stats = fetch::simulateFetch(
                image, program, artifacts->trace(), config);
            const CacheStats &cs = stats.cacheStats;
            const fetch::HotStats &hs = stats.hotStats;
            ASSERT_TRUE(cs.recorded);
            ASSERT_TRUE(hs.recorded);

            EXPECT_EQ(cs.fetches, n);
            EXPECT_EQ(cs.reuseCold, reuse_cold);
            EXPECT_EQ(cs.reuseMax, reuse_max);
            EXPECT_EQ(cs.reuseLog2Histogram.bins(), reuse_bins);

            const fetch::Att att = fetch::Att::build(image, program);
            const unsigned line_bytes = config.cache.lineBytes;
            const unsigned heat_epochs = CacheStats::kHeatmapEpochs;
            const unsigned phase_epochs = fetch::HotStats::kPhaseEpochs;
            const std::size_t statics = att.entries().size();
            fetch::L0Buffer l0(config.l0CapacityOps);
            fetch::BankedCache l1(config.cache);
            EpochOracle oracle(config.cache.sets, heat_epochs);
            l1.setObserver(&oracle);
            // The 3C reference: a fully associative LRU of the L1's
            // line capacity, probed for every line of a block before
            // any line is touched.
            const std::size_t lru_lines =
                std::size_t(config.cache.sets) * config.cache.ways;
            std::list<std::uint32_t> lru;  // most recent first
            std::map<std::uint32_t, std::list<std::uint32_t>::iterator>
                resident_at;
            std::set<std::uint32_t> touched;
            std::uint64_t misses = 0, compulsory = 0, capacity = 0;
            std::uint64_t conflict = 0;
            std::vector<std::uint64_t> phase(
                std::size_t(phase_epochs) * statics, 0);
            std::vector<std::uint64_t> block_fetches(statics, 0);
            for (std::uint64_t i = 0; i < n; ++i) {
                const isa::BlockId block = events.block(i);
                const fetch::AttEntry &entry = att.entry(block);
                oracle.epoch = formulaEpoch(i, heat_epochs, n);
                const bool l0_hit =
                    scheme == SchemeClass::kCompressed &&
                    l0.access(block, entry.numOps);
                if (!l0_hit) {
                    const std::uint32_t first =
                        entry.byteAddress / line_bytes;
                    const std::uint32_t last =
                        (entry.byteAddress + entry.byteSize - 1) /
                        line_bytes;
                    bool first_touch = false, resident = true;
                    for (std::uint32_t line = first; line <= last; ++line) {
                        first_touch |= touched.count(line) == 0;
                        resident &= resident_at.count(line) != 0;
                    }
                    for (std::uint32_t line = first; line <= last; ++line) {
                        touched.insert(line);
                        if (const auto it = resident_at.find(line);
                            it != resident_at.end())
                            lru.erase(it->second);
                        lru.push_front(line);
                        resident_at[line] = lru.begin();
                        if (lru.size() > lru_lines) {
                            resident_at.erase(lru.back());
                            lru.pop_back();
                        }
                    }
                    if (!l1.accessLines(first, last)) {
                        ++misses;
                        if (first_touch)
                            ++compulsory;
                        else if (resident)
                            ++conflict;
                        else
                            ++capacity;
                    }
                }
                ++phase[std::size_t(formulaEpoch(i, phase_epochs, n)) *
                            statics +
                        block];
                ++block_fetches[block];
            }

            EXPECT_EQ(cs.setAccesses, oracle.setAccesses);
            EXPECT_EQ(cs.setHits, oracle.setHits);
            EXPECT_EQ(cs.setFills, oracle.setFills);
            EXPECT_EQ(cs.setEvictions, oracle.setEvictions);
            EXPECT_EQ(cs.setDeadOnFill, oracle.setDeadOnFill);
            EXPECT_EQ(cs.heatAccesses, oracle.accesses);
            EXPECT_EQ(cs.heatFills, oracle.fills);
            EXPECT_EQ(cs.heatEvictions, oracle.evictions);
            EXPECT_EQ(cs.evictionUseHistogram.bins(), oracle.uses.bins());
            EXPECT_EQ(cs.evictionUseHistogram.overflow(),
                      oracle.uses.overflow());
            EXPECT_EQ(cs.misses, misses);
            EXPECT_EQ(cs.compulsory, compulsory);
            EXPECT_EQ(cs.capacity, capacity);
            EXPECT_EQ(cs.conflict, conflict);
            EXPECT_EQ(hs.phaseFetches, phase);
            EXPECT_EQ(hs.blockFetches, block_fetches);
        }
    }
}

// ---------------------------------------------------------------------------
// Session store + tepic-cache-v1 report.

struct SessionGuard
{
    SessionGuard() { fetch::cachestats::resetForTest(); }
    ~SessionGuard() { fetch::cachestats::resetForTest(); }
};

CacheStats
tinyRecord(std::uint32_t salt = 0)
{
    Rig rig({2, 1, 16});
    rig.access(0, 16);
    rig.access(32, 16);
    rig.access((salt % 2) * 32, 16);
    return rig.finish();
}

TEST(CacheReport, RecordOrderDoesNotChangeTheReport)
{
    SessionGuard guard;
    const CacheStats rec = tinyRecord();

    fetch::cachestats::startSession();
    fetch::cachestats::record("go", SchemeClass::kBase, rec);
    fetch::cachestats::record("gcc", SchemeClass::kCompressed, rec);
    const std::string forward = fetch::cachestats::reportJson("t");

    fetch::cachestats::startSession();
    fetch::cachestats::record("gcc", SchemeClass::kCompressed, rec);
    fetch::cachestats::record("go", SchemeClass::kBase, rec);
    const std::string backward = fetch::cachestats::reportJson("t");

    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward, fetch::cachestats::reportJson("t"));
}

TEST(CacheReport, RoundTripsThroughJsonWithExactTiling)
{
    SessionGuard guard;
    fetch::cachestats::startSession();
    fetch::cachestats::record("go", SchemeClass::kCompressed,
                              tinyRecord());
    const auto doc =
        testjson::parse(fetch::cachestats::reportJson("unit"));
    EXPECT_EQ(doc.at("schema").str, "tepic-cache-v1");
    EXPECT_EQ(doc.at("name").str, "unit");
    const auto &wl = doc.at("structure").at("workloads").at("go");
    const auto &scheme = wl.at("compressed");
    const auto &l1 = scheme.at("l1");
    const auto &classes = l1.at("miss_classes");
    EXPECT_EQ(l1.at("misses").number,
              classes.at("compulsory").number +
                  classes.at("capacity").number +
                  classes.at("conflict").number);
    EXPECT_EQ(l1.at("accesses").number,
              l1.at("hits").number + l1.at("misses").number);
    const auto &heat = scheme.at("heatmap");
    ASSERT_EQ(heat.at("accesses").array.size(),
              std::size_t(heat.at("epochs").number));
    EXPECT_EQ(scheme.at("config").at("sets").number, 2.0);
}

TEST(CacheReport, GeometrySweepsAreKeyedApartNotMerged)
{
    SessionGuard guard;
    fetch::cachestats::startSession();
    fetch::cachestats::record("go", SchemeClass::kBase, tinyRecord());
    // Same workload+scheme, different geometry: must not merge.
    Rig other({4, 2, 32});
    other.access(0, 32);
    fetch::cachestats::record("go", SchemeClass::kBase,
                              other.finish());
    const auto doc =
        testjson::parse(fetch::cachestats::reportJson("t"));
    const auto &workloads = doc.at("structure").at("workloads");
    EXPECT_TRUE(workloads.has("go"));
    EXPECT_TRUE(workloads.has("go@4x2x32"));
    EXPECT_EQ(workloads.at("go").at("base").at("config").at(
                                                  "sets").number,
              2.0);
    EXPECT_EQ(workloads.at("go@4x2x32")
                  .at("base")
                  .at("config")
                  .at("sets")
                  .number,
              4.0);
}

TEST(CacheReport, DisabledSessionRecordsNothing)
{
    SessionGuard guard;
    EXPECT_FALSE(fetch::cachestats::enabled());
    fetch::cachestats::record("go", SchemeClass::kBase, tinyRecord());
    const auto doc =
        testjson::parse(fetch::cachestats::reportJson("t"));
    EXPECT_TRUE(
        doc.at("structure").at("workloads").object.empty());
}

// An empty report stays a valid document, and an unrecorded
// CacheStats is inert.

TEST(CacheReport, EmptyReportIsValidJson)
{
    fetch::cachestats::resetForTest();
    const auto doc =
        testjson::parse(fetch::cachestats::reportJson("empty"));
    EXPECT_EQ(doc.at("schema").str, "tepic-cache-v1");
    EXPECT_TRUE(doc.at("structure").at("workloads").isObject());
}

TEST(CacheStatsStruct, UnrecordedIsInert)
{
    CacheStats stats;
    EXPECT_FALSE(stats.recorded);
    stats.assertTiling();  // no-op, must not fire
    CacheStats other;
    stats.merge(other);  // merging nothing into nothing
    EXPECT_FALSE(stats.recorded);
    EXPECT_EQ(stats.missRate(), 0.0);
    EXPECT_EQ(stats.deadOnFillRate(), 0.0);
}

} // namespace
