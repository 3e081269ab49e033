/**
 * @file
 * Fetch-subsystem tests: the Table-1 cycle model (checked cell by
 * cell against the paper), the banked cache's restricted-placement
 * behaviour, the L0 buffer, the ATB with its coupled predictor,
 * end-to-end fetch-simulation invariants, the kernel's handoff from
 * its memory thread against the stages composed serially, and the
 * memory stream releasing every reader when the walk fails.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "compiler/driver.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "fetch/att.hh"
#include "fetch/banked_cache.hh"
#include "fetch/cycle_model.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/fetch_stages.hh"
#include "fetch/l0_buffer.hh"
#include "fetch/superblock.hh"
#include "isa/baseline.hh"
#include "schemes/huffman_scheme.hh"
#include "sim/emulator.hh"
#include "support/rng.hh"

namespace {

using namespace tepic;
using fetch::blockCycles;
using fetch::CyclePenalties;
using fetch::FetchEvent;
using fetch::SchemeClass;
using fetch::schemeClassName;

/**
 * Table 1 of the paper, verified literally: a single-MOP, single-op,
 * n-line block must cost exactly the table's cell.
 */
TEST(CycleModel, Table1BaseColumn)
{
    const std::uint32_t n = 4;  // memory lines
    auto cost = [&](bool pred_ok, bool hit) {
        FetchEvent ev;
        ev.predictionCorrect = pred_ok;
        ev.l1Hit = hit;
        return blockCycles(SchemeClass::kBase, ev, 1, 1, n);
    };
    EXPECT_EQ(cost(true, true), 1u);            // 1 cycle
    EXPECT_EQ(cost(true, false), 1u + (n - 1)); // 1+(n-1)
    EXPECT_EQ(cost(false, true), 2u);           // 2 cycles
    EXPECT_EQ(cost(false, false), 8u + (n - 1)); // 8+(n-1)
}

TEST(CycleModel, Table1TailoredColumn)
{
    const std::uint32_t n = 4;
    auto cost = [&](bool pred_ok, bool hit) {
        FetchEvent ev;
        ev.predictionCorrect = pred_ok;
        ev.l1Hit = hit;
        return blockCycles(SchemeClass::kTailored, ev, 1, 1, n);
    };
    EXPECT_EQ(cost(true, true), 1u);
    EXPECT_EQ(cost(true, false), 2u + (n - 1)); // 2+(n-1)
    EXPECT_EQ(cost(false, true), 2u);
    EXPECT_EQ(cost(false, false), 9u + (n - 1)); // 9+(n-1)
}

TEST(CycleModel, Table1CompressedColumn)
{
    const std::uint32_t n = 4;
    auto cost = [&](bool pred_ok, bool hit, bool l0) {
        FetchEvent ev;
        ev.predictionCorrect = pred_ok;
        ev.l1Hit = hit;
        ev.l0Hit = l0;
        return blockCycles(SchemeClass::kCompressed, ev, 1, 1, n);
    };
    // Buffer-hit rows: flat 1 cycle in every column.
    EXPECT_EQ(cost(true, true, true), 1u);
    EXPECT_EQ(cost(true, false, true), 1u);
    EXPECT_EQ(cost(false, true, true), 1u);
    EXPECT_EQ(cost(false, false, true), 1u);
    // Buffer-miss rows.
    EXPECT_EQ(cost(true, true, false), 1u);             // 1+(n-1)@hit
    EXPECT_EQ(cost(true, false, false), 3u + (n - 1));  // 3+(n-1)
    EXPECT_EQ(cost(false, true, false), 3u);            // decode stage
    EXPECT_EQ(cost(false, false, false), 10u + (n - 1)); // 10+(n-1)
}

TEST(CycleModel, StreamsOneMopPerCycle)
{
    FetchEvent ok;
    EXPECT_EQ(blockCycles(SchemeClass::kBase, ok, 12, 30, 3), 12u);
    EXPECT_EQ(blockCycles(SchemeClass::kTailored, ok, 12, 30, 3), 12u);
    FetchEvent l0;
    l0.l0Hit = true;
    EXPECT_EQ(blockCycles(SchemeClass::kCompressed, l0, 12, 30, 3),
              12u);
}

TEST(CycleModel, RejectsBadShapes)
{
    FetchEvent ev;
    EXPECT_ANY_THROW(blockCycles(SchemeClass::kBase, ev, 0, 0, 1));
    EXPECT_ANY_THROW(blockCycles(SchemeClass::kBase, ev, 2, 1, 1));
}

/**
 * The per-cause breakdown must tile blockCycles() exactly for every
 * scheme × event combination: stall attribution is a decomposition of
 * the Table-1 model, never a second model.
 */
TEST(StallAttribution, BreakdownTilesBlockCycles)
{
    for (auto scheme : {SchemeClass::kBase, SchemeClass::kTailored,
                        SchemeClass::kCompressed}) {
        for (bool pred_ok : {true, false}) {
            for (bool l1_hit : {true, false}) {
                for (bool l0_hit : {false, true}) {
                    for (std::uint32_t n : {1u, 2u, 5u}) {
                        FetchEvent ev;
                        ev.predictionCorrect = pred_ok;
                        ev.l1Hit = l1_hit;
                        ev.l0Hit = l0_hit;
                        const auto causes = fetch::stallBreakdown(
                            scheme, ev, 3, 7, n);
                        EXPECT_EQ(3u + causes.total(),
                                  blockCycles(scheme, ev, 3, 7, n))
                            << schemeClassName(scheme) << " pred="
                            << pred_ok << " l1=" << l1_hit
                            << " l0=" << l0_hit << " n=" << n;
                        EXPECT_EQ(causes.atbMiss, 0u)
                            << "the ATB is modelled outside "
                               "blockCycles";
                    }
                }
            }
        }
    }
}

TEST(StallAttribution, CausesLandWhereTable1SaysTheyDo)
{
    const std::uint32_t n = 4;
    FetchEvent miss;
    miss.l1Hit = false;
    // Base miss: pure refill repair.
    auto base = fetch::stallBreakdown(SchemeClass::kBase, miss, 1, 1,
                                      n);
    EXPECT_EQ(base.l1Refill, n - 1);
    EXPECT_EQ(base.mispredict, 0u);
    // Tailored miss: refill absorbs the extra MOP-extraction stage.
    auto tail = fetch::stallBreakdown(SchemeClass::kTailored, miss, 1,
                                      1, n);
    EXPECT_EQ(tail.l1Refill, 1u + (n - 1));
    // Compressed mispredicted hit: redirect + visible decoder stage.
    FetchEvent redirect;
    redirect.predictionCorrect = false;
    auto comp = fetch::stallBreakdown(SchemeClass::kCompressed,
                                      redirect, 1, 1, n);
    EXPECT_EQ(comp.mispredict, 1u);
    EXPECT_EQ(comp.decodeStage, 1u);
    EXPECT_EQ(comp.l1Refill, 0u);
    // Compressed L0 hit: every cause is zero, but the bypass saved
    // the redirect + decoder latency it would have paid.
    redirect.l0Hit = true;
    auto l0 = fetch::stallBreakdown(SchemeClass::kCompressed, redirect,
                                    1, 1, n);
    EXPECT_EQ(l0.total(), 0u);
    EXPECT_EQ(fetch::l0BypassSavings(SchemeClass::kCompressed,
                                     redirect),
              2u);
    // The savings counterfactual is zero when nothing was at risk.
    redirect.predictionCorrect = true;
    EXPECT_EQ(fetch::l0BypassSavings(SchemeClass::kCompressed,
                                     redirect),
              0u);
    FetchEvent base_ev;
    base_ev.l0Hit = true;
    EXPECT_EQ(fetch::l0BypassSavings(SchemeClass::kBase, base_ev), 0u);
}

TEST(BankedCache, HitAfterFill)
{
    fetch::BankedCache cache({16, 2, 32});
    auto first = cache.accessBlock(0, 40);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.blockLines, 2u);  // bytes 0..39 span 2 lines
    EXPECT_EQ(first.linesFilled, 2u);
    auto second = cache.accessBlock(0, 40);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(BankedCache, LineSpanComputation)
{
    fetch::BankedCache cache({16, 2, 32});
    // A block straddling a line boundary: bytes 30..41.
    EXPECT_EQ(cache.accessBlock(30, 12).blockLines, 2u);
    // Exactly one line.
    EXPECT_EQ(cache.accessBlock(64, 32).blockLines, 1u);
    // One byte.
    EXPECT_EQ(cache.accessBlock(200, 1).blockLines, 1u);
}

TEST(BankedCache, LruEvictionWithinSet)
{
    // 1 set, 2 ways, 32-byte lines: three conflicting lines.
    fetch::BankedCache cache({1, 2, 32});
    cache.accessBlock(0, 8);    // line 0
    cache.accessBlock(32, 8);   // line 1
    cache.accessBlock(0, 8);    // touch line 0 (now MRU)
    cache.accessBlock(64, 8);   // line 2 evicts line 1
    EXPECT_TRUE(cache.accessBlock(0, 8).hit);
    EXPECT_FALSE(cache.accessBlock(32, 8).hit);  // evicted
}

TEST(BankedCache, RestrictedPlacementPartialIsMiss)
{
    // A 2-line block whose second line gets evicted must re-fetch the
    // whole block (restricted placement, §3.4).
    fetch::BankedCache cache({1, 2, 32});
    cache.accessBlock(0, 64);    // lines 0,1 fill both ways of set 0
    EXPECT_TRUE(cache.accessBlock(0, 64).hit);
    cache.accessBlock(96, 8);    // line 3 evicts one of them
    auto again = cache.accessBlock(0, 64);
    EXPECT_FALSE(again.hit);
    EXPECT_EQ(again.linesFilled, 2u);  // whole block refilled
}

/** Every line event, in order, for comparing two caches' behaviour. */
struct LineEventLog final : fetch::CacheLineObserver
{
    std::vector<std::uint64_t> events;

    void
    onLineHit(std::uint64_t line, std::uint32_t set) override
    {
        events.insert(events.end(), {0, line, set});
    }

    void
    onLineFill(std::uint64_t line, std::uint32_t set) override
    {
        events.insert(events.end(), {1, line, set});
    }

    void
    onLineEvict(std::uint64_t line, std::uint32_t set,
                std::uint64_t uses) override
    {
        events.insert(events.end(), {2, line, set, uses});
    }
};

/**
 * accessLines (the set walked on from the first line's) against
 * accessBlock (the span from byte addresses) on set counts that are
 * not powers of two and on the Base image's 40-byte lines: same hits,
 * same fills, same line events in the same order, and every event
 * names the set line % sets.
 */
TEST(BankedCache, AccessLinesAgreesWithAccessBlock)
{
    const fetch::CacheConfig geometries[] = {
        {3, 2, 32}, {96, 1, 32}, {96, 2, 64}, {5, 3, 40},
        fetch::CacheConfig::paperBase(), {64, 2, 32}, {1, 2, 32}};
    for (const fetch::CacheConfig &geometry : geometries) {
        fetch::BankedCache by_block(geometry), by_lines(geometry);
        LineEventLog block_log, lines_log;
        by_block.setObserver(&block_log);
        by_lines.setObserver(&lines_log);
        support::Rng rng(geometry.sets * 131 + geometry.lineBytes);
        const std::uint32_t span =
            4 * std::uint32_t(geometry.capacityBytes());
        for (int i = 0; i < 4000; ++i) {
            const auto addr = std::uint32_t(rng.below(span));
            const auto size = std::uint32_t(rng.range(1, 200));
            const fetch::CacheAccess want =
                by_block.accessBlock(addr, size);
            const std::uint64_t first = addr / geometry.lineBytes;
            const std::uint64_t last =
                (std::uint64_t(addr) + size - 1) / geometry.lineBytes;
            ASSERT_EQ(by_lines.accessLines(first, last), want.hit)
                << "access " << i << " sets " << geometry.sets;
            ASSERT_EQ(want.blockLines, last - first + 1);
        }
        EXPECT_EQ(by_lines.hits(), by_block.hits());
        EXPECT_EQ(by_lines.misses(), by_block.misses());
        EXPECT_EQ(by_lines.linesFilled(), by_block.linesFilled());
        EXPECT_GT(by_block.hits(), 0u);
        EXPECT_GT(by_block.misses(), 0u);
        EXPECT_EQ(lines_log.events, block_log.events)
            << "sets " << geometry.sets;
        for (std::size_t e = 0; e < lines_log.events.size();) {
            const std::uint64_t line = lines_log.events[e + 1];
            ASSERT_EQ(lines_log.events[e + 2], line % geometry.sets)
                << "line " << line << " sets " << geometry.sets;
            e += lines_log.events[e] == 2 ? 4 : 3;
        }
    }
}

TEST(BankedCache, PaperGeometries)
{
    EXPECT_EQ(fetch::CacheConfig::paperCompressed().capacityBytes(),
              16u * 1024);
    EXPECT_EQ(fetch::CacheConfig::paperBase().capacityBytes(),
              20u * 1024);
}

TEST(L0Buffer, HitMissAndCapacity)
{
    fetch::L0Buffer buf(32);
    EXPECT_FALSE(buf.access(1, 10));
    EXPECT_TRUE(buf.access(1, 10));
    EXPECT_FALSE(buf.access(2, 10));
    EXPECT_FALSE(buf.access(3, 10));
    // 30 ops resident; block 4 (10 ops) evicts LRU block 1.
    EXPECT_FALSE(buf.access(4, 10));
    EXPECT_FALSE(buf.access(1, 10));  // was evicted
}

TEST(L0Buffer, CapacityOneDegeneratesToSingleEntry)
{
    // Exactly one 4-op block fits: every distinct access evicts the
    // sole resident, so only immediate re-accesses hit.
    fetch::L0Buffer buf(4);
    EXPECT_FALSE(buf.access(0, 4));
    EXPECT_TRUE(buf.access(0, 4));
    EXPECT_EQ(buf.residentOps(), 4u);
    EXPECT_FALSE(buf.access(1, 4));  // evicts 0
    EXPECT_FALSE(buf.access(0, 4));  // evicts 1
    EXPECT_EQ(buf.residentOps(), 4u);
    EXPECT_EQ(buf.hits(), 1u);
    EXPECT_EQ(buf.misses(), 3u);
}

TEST(L0Buffer, ReAccessMovesBlockToMruExactEvictionOrder)
{
    // Three 4-op blocks fill the buffer; a hit on the oldest must
    // move it to MRU so the *next* oldest is the eviction victim.
    fetch::L0Buffer buf(12);
    EXPECT_FALSE(buf.access(0, 4));
    EXPECT_FALSE(buf.access(1, 4));
    EXPECT_FALSE(buf.access(2, 4));
    EXPECT_TRUE(buf.access(0, 4));   // LRU order now 1, 2, 0
    EXPECT_FALSE(buf.access(3, 4));  // evicts 1, not 0
    EXPECT_TRUE(buf.access(0, 4));   // survived
    EXPECT_TRUE(buf.access(2, 4));   // survived
    EXPECT_FALSE(buf.access(1, 4));  // the actual victim; evicts 3
    EXPECT_FALSE(buf.access(3, 4));
    EXPECT_EQ(buf.hits(), 3u);
    EXPECT_EQ(buf.misses(), 6u);
    EXPECT_EQ(buf.residentOps(), 12u);
}

TEST(L0Buffer, OversizedBlocksBypass)
{
    fetch::L0Buffer buf(32);
    EXPECT_FALSE(buf.access(7, 100));
    EXPECT_FALSE(buf.access(7, 100));  // never cached
    EXPECT_EQ(buf.hits(), 0u);
    // Normal blocks still work.
    EXPECT_FALSE(buf.access(8, 32));
    EXPECT_TRUE(buf.access(8, 32));
}

namespace {

/** Compiled three-block program + image + ATT for ATB tests. */
struct AtbFixture
{
    compiler::CompiledProgram compiled;
    isa::Image image;
    fetch::Att att;

    AtbFixture()
        : compiled(compiler::compileSource(R"(
            func main(): int {
                var s = 0;
                for (var i = 0; i < 10; i = i + 1) { s = s + i; }
                return s;
            }
          )")),
          image(isa::buildBaselineImage(compiled.program)),
          att(fetch::Att::build(image, compiled.program))
    {
    }
};

} // namespace

TEST(Att, EntriesMirrorImageAndCfg)
{
    AtbFixture fx;
    ASSERT_EQ(fx.att.entries().size(),
              fx.compiled.program.blocks().size());
    for (const auto &blk : fx.compiled.program.blocks()) {
        const auto &entry = fx.att.entry(blk.id);
        EXPECT_EQ(entry.byteAddress,
                  fx.image.blocks[blk.id].bitOffset / 8);
        EXPECT_EQ(entry.numOps, fx.image.blocks[blk.id].numOps);
        EXPECT_EQ(entry.fallthrough, blk.fallthrough);
        EXPECT_EQ(entry.staticTarget, blk.branchTarget);
    }
    EXPECT_GT(fx.att.entryBits(), 16u);
    EXPECT_EQ(fx.att.totalBits(),
              fx.att.entryBits() * fx.att.entries().size());
}

TEST(Atb, LruAndPredictorLearning)
{
    AtbFixture fx;
    fetch::Atb atb(fx.att, 2);

    EXPECT_FALSE(atb.access(0));
    EXPECT_TRUE(atb.access(0));
    EXPECT_FALSE(atb.access(1));
    EXPECT_FALSE(atb.access(2));  // evicts block 0 (LRU)
    EXPECT_FALSE(atb.access(0));  // re-miss

    // Predictor: after repeated taken outcomes to block 9, a block
    // with a fallthrough flips to predicting the target.
    fetch::Atb atb2(fx.att, 8);
    // Find a block with a fallthrough successor.
    isa::BlockId with_fall = isa::kNoBlock;
    for (const auto &blk : fx.compiled.program.blocks()) {
        if (blk.fallthrough != isa::kNoBlock) {
            with_fall = blk.id;
            break;
        }
    }
    ASSERT_NE(with_fall, isa::kNoBlock);
    const isa::BlockId fall =
        fx.att.entry(with_fall).fallthrough;
    atb2.access(with_fall);
    // Cold counter (weakly not-taken): predicts fallthrough.
    EXPECT_EQ(atb2.predictNext(with_fall), fall);
    atb2.update(with_fall, true, 2);
    atb2.update(with_fall, true, 2);
    EXPECT_EQ(atb2.predictNext(with_fall), 2u);
    atb2.update(with_fall, false, fall);
    atb2.update(with_fall, false, fall);
    EXPECT_EQ(atb2.predictNext(with_fall), fall);
}

TEST(Atb, CapacityOneDegeneratesToSingleEntry)
{
    AtbFixture fx;
    ASSERT_GE(fx.att.entries().size(), 2u);
    fetch::Atb atb(fx.att, 1);
    EXPECT_FALSE(atb.access(0));
    EXPECT_TRUE(atb.access(0));
    EXPECT_FALSE(atb.access(1));  // evicts 0
    EXPECT_FALSE(atb.access(0));  // evicts 1
    EXPECT_EQ(atb.hits(), 1u);
    EXPECT_EQ(atb.misses(), 3u);
}

TEST(Atb, ReAccessMovesEntryToMruExactEvictionOrder)
{
    AtbFixture fx;
    ASSERT_GE(fx.att.entries().size(), 3u);
    fetch::Atb atb(fx.att, 2);
    EXPECT_FALSE(atb.access(0));
    EXPECT_FALSE(atb.access(1));
    EXPECT_TRUE(atb.access(0));   // LRU order now 1, 0
    EXPECT_FALSE(atb.access(2));  // evicts 1, not 0
    EXPECT_TRUE(atb.access(0));   // survived the eviction
    EXPECT_FALSE(atb.access(1));  // the actual victim; evicts 2
    EXPECT_FALSE(atb.access(2));
    EXPECT_EQ(atb.hits(), 2u);
    EXPECT_EQ(atb.misses(), 5u);
}

/**
 * The per-entry 2-bit counter must saturate at both ends (§3.4): from
 * strongly-taken it takes exactly two not-taken outcomes to flip the
 * prediction, however long the taken streak was — and symmetrically
 * from strongly-not-taken. A wrapping counter would flip after one.
 */
TEST(Atb, TwoBitCounterSaturatesAtBothEnds)
{
    AtbFixture fx;
    fetch::Atb atb(fx.att, 8);
    isa::BlockId site = isa::kNoBlock;
    for (const auto &blk : fx.compiled.program.blocks()) {
        if (blk.fallthrough != isa::kNoBlock) {
            site = blk.id;
            break;
        }
    }
    ASSERT_NE(site, isa::kNoBlock);
    const isa::BlockId fall = fx.att.entry(site).fallthrough;
    atb.access(site);

    for (int i = 0; i < 6; ++i)  // drive to strongly taken; saturate
        atb.update(site, true, 2);
    EXPECT_EQ(atb.predictNext(site), 2u);
    atb.update(site, false, fall);  // strongly -> weakly taken
    EXPECT_EQ(atb.predictNext(site), 2u);  // hysteresis holds
    atb.update(site, false, fall);  // weakly taken -> weakly n-t
    EXPECT_EQ(atb.predictNext(site), fall);

    for (int i = 0; i < 6; ++i)  // saturate at the bottom
        atb.update(site, false, fall);
    atb.update(site, true, 2);  // strongly -> weakly not-taken
    EXPECT_EQ(atb.predictNext(site), fall);  // hysteresis again
    atb.update(site, true, 2);
    EXPECT_EQ(atb.predictNext(site), 2u);
}

/**
 * Bimodal direction state is keyed by ATB entry, i.e. by static block
 * (§3.4) — two sites trained to opposite outcomes in lockstep must
 * never perturb each other's counters.
 */
TEST(Atb, SiteKeyingIsAliasFree)
{
    AtbFixture fx;
    std::vector<isa::BlockId> sites;
    for (const auto &blk : fx.compiled.program.blocks())
        if (blk.fallthrough != isa::kNoBlock)
            sites.push_back(blk.id);
    ASSERT_GE(sites.size(), 2u);
    const isa::BlockId a = sites[0], b = sites[1];
    fetch::Atb atb(fx.att, 8);  // both resident; nothing evicts
    atb.access(a);
    atb.access(b);
    for (int round = 0; round < 10; ++round) {
        atb.update(a, true, 2);
        atb.update(b, false, fx.att.entry(b).fallthrough);
    }
    EXPECT_EQ(atb.predictNext(a), 2u);
    EXPECT_EQ(atb.predictNext(b), fx.att.entry(b).fallthrough);
}

/**
 * The hot-stats site ledger against the architectural counters: the
 * per-site direction totals tile the fetch count (one prediction per
 * event) and the per-site mispredict deltas tile predictionsWrong
 * once the unconsumed final prediction is added back.
 */
TEST(FetchSim, SiteCounterDeltasTileMispredicts)
{
    auto compiled = compiler::compileSource(R"(
        func main(): int {
            var s = 0;
            for (var i = 0; i < 300; i = i + 1) {
                if (i % 7 < 3) { s = s + i; } else { s = s - 1; }
            }
            return s;
        }
    )");
    auto emu = sim::emulate(compiled.program, compiled.data);
    const auto image = isa::buildBaselineImage(compiled.program);
    auto config = fetch::FetchConfig::paper(SchemeClass::kBase);
    config.recordHotStats = true;
    const auto stats = fetch::simulateFetch(image, compiled.program,
                                            emu.trace, config);
    const fetch::HotStats &hs = stats.hotStats;
    ASSERT_TRUE(hs.recorded);
    std::uint64_t site_predictions = 0, site_mispredicts = 0;
    for (std::uint32_t blk = 0; blk < hs.staticBlocks; ++blk) {
        site_predictions += hs.siteTaken[blk] + hs.siteNotTaken[blk];
        site_mispredicts += hs.siteMispredicts[blk];
        // A site only accumulates direction outcomes if it ran.
        if (hs.siteTaken[blk] + hs.siteNotTaken[blk] > 0) {
            EXPECT_GT(hs.blockFetches[blk], 0u) << "block " << blk;
        }
    }
    EXPECT_EQ(site_predictions, stats.blocksFetched);
    EXPECT_EQ(site_mispredicts,
              stats.predictionsWrong + hs.unconsumedMispredicts);
    EXPECT_GT(site_mispredicts, 0u);  // the if() ping-pongs
}

TEST(FetchSim, InvariantsOnRealWorkload)
{
    auto compiled = compiler::compileSource(R"(
        func f(x): int {
            if (x % 3 == 0) { return x * 2; }
            return x + 1;
        }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 500; i = i + 1) { s = s + f(i); }
            return s;
        }
    )");
    auto emu = sim::emulate(compiled.program, compiled.data);
    const auto image = isa::buildBaselineImage(compiled.program);

    const auto stats = fetch::simulateFetch(
        image, compiled.program, emu.trace,
        fetch::FetchConfig::paper(SchemeClass::kBase));

    EXPECT_EQ(stats.blocksFetched, emu.trace.events.size());
    EXPECT_EQ(stats.opsDelivered, emu.dynamicOps);
    EXPECT_EQ(stats.idealCycles, emu.dynamicMops);
    EXPECT_GE(stats.cycles, stats.idealCycles);
    EXPECT_EQ(stats.predictionsCorrect + stats.predictionsWrong,
              stats.blocksFetched);
    EXPECT_EQ(stats.l1Hits + stats.l1Misses, stats.blocksFetched);
    EXPECT_LE(stats.ipc(), stats.idealIpc());
    EXPECT_GT(stats.l1HitRate(), 0.9);  // tiny program, warm cache
    // Misses moved real bytes.
    EXPECT_GT(stats.busBitFlips, 0u);
    EXPECT_GT(stats.bytesTransferred, 0u);
}

TEST(FetchSim, PerfectPredictionOnStraightLine)
{
    // A single-block program mispredicts at most the halt transition.
    auto compiled = compiler::compileSource(
        "func main(): int { return 1 + 2 + 3; }");
    auto emu = sim::emulate(compiled.program, compiled.data);
    const auto image = isa::buildBaselineImage(compiled.program);
    const auto stats = fetch::simulateFetch(
        image, compiled.program, emu.trace,
        fetch::FetchConfig::paper(SchemeClass::kBase));
    EXPECT_EQ(stats.predictionsWrong, 0u);
}

TEST(FetchSim, TinyLoopLivesInL0)
{
    // A loop body far below 32 ops: after warmup, essentially every
    // fetch is an L0 hit under the compressed scheme.
    auto compiled = compiler::compileSource(R"(
        func main(): int {
            var s = 0;
            for (var i = 0; i < 2000; i = i + 1) { s = s + i; }
            return s;
        }
    )");
    auto emu = sim::emulate(compiled.program, compiled.data);
    const auto full = schemes::compressFull(compiled.program);
    const auto stats = fetch::simulateFetch(
        full.image, compiled.program, emu.trace,
        fetch::FetchConfig::paper(SchemeClass::kCompressed));
    EXPECT_GT(double(stats.l0Hits) /
                  double(stats.l0Hits + stats.l0Misses),
              0.95);
    // With the L0 covering the loop, compressed IPC ~= ideal.
    EXPECT_GT(stats.ipc() / stats.idealIpc(), 0.95);
}

/**
 * End-to-end tiling invariant, the acceptance criterion of the
 * attribution work: for every scheme the per-cause aggregate counters
 * sum exactly to stallCycles, and the HOT record's per-fetch charges
 * sum back to the same totals.
 */
TEST(FetchSim, StallCausesTileStallCyclesAllSchemes)
{
    auto compiled = compiler::compileSource(R"(
        func f(x): int {
            if (x % 3 == 0) { return x * 2; }
            return x + 1;
        }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 400; i = i + 1) { s = s + f(i); }
            return s;
        }
    )");
    auto emu = sim::emulate(compiled.program, compiled.data);
    const auto base_image = isa::buildBaselineImage(compiled.program);
    const auto full = schemes::compressFull(compiled.program);

    for (auto scheme : {SchemeClass::kBase, SchemeClass::kTailored,
                        SchemeClass::kCompressed}) {
        const auto &image = scheme == SchemeClass::kCompressed
            ? full.image
            : base_image;
        auto config = fetch::FetchConfig::paper(scheme);
        config.recordHotStats = true;
        const auto stats = fetch::simulateFetch(
            image, compiled.program, emu.trace, config);
        SCOPED_TRACE(schemeClassName(scheme));

        EXPECT_EQ(stats.mispredictStallCycles +
                      stats.refillStallCycles +
                      stats.decodeStallCycles + stats.atbStallCycles,
                  stats.stallCycles);
        EXPECT_GT(stats.stallCycles, 0u);
        if (scheme != SchemeClass::kCompressed) {
            EXPECT_EQ(stats.decodeStallCycles, 0u);
            EXPECT_EQ(stats.l0SavedCycles, 0u);
        }

        // Per fetch: the HOT record charges every stall cycle to one
        // static block and every repair stall to the mispredicting
        // site.
        const auto &hs = stats.hotStats;
        ASSERT_TRUE(hs.recorded);
        std::uint64_t block_stalls = 0, site_stalls = 0;
        for (std::uint32_t b = 0; b < hs.staticBlocks; ++b) {
            block_stalls += hs.blockStalls[b];
            site_stalls += hs.siteMispredictStall[b];
        }
        EXPECT_EQ(block_stalls, stats.stallCycles);
        EXPECT_EQ(site_stalls, stats.mispredictStallCycles);
    }
}

/**
 * simulateFetch's loop composed serially on one thread from the
 * stages of fetch_stages.hh — the oracle for the kernel, whose memory
 * stage runs on a thread of its own.
 */
fetch::FetchStats
serialFetch(const isa::Image &image, const isa::VliwProgram &program,
            const sim::BlockTrace &trace, const fetch::FetchConfig &config)
{
    const fetch::Att att = fetch::Att::build(image, program, config.units);
    fetch::FetchTable table(att, image, config.cache.lineBytes);
    fetch::ControlStage control(att, config.atbEntries, config.predictor);
    fetch::L0Buffer l0(config.l0CapacityOps);
    fetch::BankedCache l1(config.cache);
    power::BusModel bus(fetch::kBusWidthBytes);
    fetch::CostStage cost(config, table, bus);
    fetch::FetchStats stats;
    const sim::TraceView events = trace.view();
    for (std::size_t first = 0; first < events.size();) {
        const isa::BlockId head = events.block(first);
        const fetch::AttEntry &entry = att.entry(head);
        const auto [last, side_exit] =
            fetch::walkUnit(events, first, config.units);
        const sim::TraceEvent exit = events.event(last);
        fetch::FetchShape shape{entry.numMops, entry.numOps,
                                table.lines(head).count(),
                                std::uint32_t(last - first + 1)};
        if (side_exit) {
            shape.mops = shape.ops = 0;
            for (isa::BlockId b = head; b <= exit.block; ++b) {
                shape.mops += image.blocks[b].numMops;
                shape.ops += image.blocks[b].numOps;
            }
        }
        const fetch::ControlOutcome ctl = control.enter(head);
        const fetch::MemoryOutcome mem = fetch::accessMemory(
            config, l0, l1, head, entry.numOps, table.lines(head));
        cost.transfer(stats, head, ctl, mem, shape);
        cost.charge(stats, ctl, mem, shape);
        ++stats.fetches;
        stats.sideExits += side_exit;
        control.leave(head, exit, side_exit);
        first = last + 1;
    }
    stats.atbHits = control.atb().hits();
    stats.atbMisses = control.atb().misses();
    stats.busBeats = bus.beats();
    stats.busBitFlips = bus.bitFlips();
    stats.bytesTransferred = bus.bytesTransferred();
    return stats;
}

/** The events of the first @p fetches fetches of @p trace under
 *  @p units (fewer if the trace runs out). Like every trace, the
 *  prefix ends in the halt id: its last fetch leaves to kHaltBlockId,
 *  not to the block that followed it in @p trace. */
sim::BlockTrace
firstFetches(const sim::BlockTrace &trace, const fetch::FetchUnits *units,
             std::size_t fetches)
{
    std::size_t end = 0;
    for (std::size_t n = 0; n < fetches && end < trace.events.size(); ++n)
        end = fetch::walkUnit(trace.view(), end, units).last + 1;
    return {{trace.events.begin(),
             trace.events.begin() + std::ptrdiff_t(end)}};
}

/** Every counter of FetchStats (the records aside) is equal. */
void
expectSameCounters(const fetch::FetchStats &got,
                   const fetch::FetchStats &want)
{
#define TEPIC_EXPECT_FIELD(field) EXPECT_EQ(got.field, want.field) << #field
    TEPIC_EXPECT_FIELD(cycles);
    TEPIC_EXPECT_FIELD(idealCycles);
    TEPIC_EXPECT_FIELD(opsDelivered);
    TEPIC_EXPECT_FIELD(blocksFetched);
    TEPIC_EXPECT_FIELD(fetches);
    TEPIC_EXPECT_FIELD(sideExits);
    TEPIC_EXPECT_FIELD(l1Hits);
    TEPIC_EXPECT_FIELD(l1Misses);
    TEPIC_EXPECT_FIELD(l0Hits);
    TEPIC_EXPECT_FIELD(l0Misses);
    TEPIC_EXPECT_FIELD(atbHits);
    TEPIC_EXPECT_FIELD(atbMisses);
    TEPIC_EXPECT_FIELD(predictionsCorrect);
    TEPIC_EXPECT_FIELD(predictionsWrong);
    TEPIC_EXPECT_FIELD(linesTransferred);
    TEPIC_EXPECT_FIELD(busBeats);
    TEPIC_EXPECT_FIELD(busBitFlips);
    TEPIC_EXPECT_FIELD(bytesTransferred);
    TEPIC_EXPECT_FIELD(stallCycles);
    TEPIC_EXPECT_FIELD(mispredictStallCycles);
    TEPIC_EXPECT_FIELD(refillStallCycles);
    TEPIC_EXPECT_FIELD(decodeStallCycles);
    TEPIC_EXPECT_FIELD(atbStallCycles);
    TEPIC_EXPECT_FIELD(l0SavedCycles);
#undef TEPIC_EXPECT_FIELD
}

/**
 * The kernel reads each fetch's memory outcome from its memory thread,
 * which publishes every MemoryStream::kChunk fetches and at its end.
 * Around that boundary — 1, kChunk - 1, kChunk and kChunk + 1 fetches
 * of a real trace — every counter must equal the serial composition
 * of the stages, for every scheme, plain fetch and 4-block units, with
 * the recorders on and off.
 */
TEST(FetchSim, MemoryHandoffMatchesSerialStages)
{
    core::ArtifactEngine engine(1);
    const auto artifacts = engine.build(
        R"(
            func f(x): int {
                if (x % 3 == 0) { return x * 2; }
                if (x % 5 == 1) { return x - 7; }
                return x + 1;
            }
            func main(): int {
                var s = 0;
                for (var i = 0; i < 6000; i = i + 1) { s = s + f(i); }
                return s;
            }
        )",
        {core::ArtifactKind::kBase, core::ArtifactKind::kFull,
         core::ArtifactKind::kTailored, core::ArtifactKind::kTrace});
    const isa::VliwProgram &program = artifacts->compiled.program;
    const fetch::FetchUnits units =
        fetch::formFetchUnits(program, artifacts->trace());
    constexpr std::size_t kChunk = fetch::MemoryStream::kChunk;

    for (const fetch::FetchUnits *partition :
         {static_cast<const fetch::FetchUnits *>(nullptr), &units}) {
        for (const std::size_t fetches :
             {std::size_t(1), kChunk - 1, kChunk, kChunk + 1}) {
            const sim::BlockTrace trace =
                firstFetches(artifacts->trace(), partition, fetches);
            for (auto scheme :
                 {SchemeClass::kBase, SchemeClass::kCompressed,
                  SchemeClass::kTailored}) {
                const isa::Image &image =
                    core::imageFor(*artifacts, scheme);
                auto config = fetch::FetchConfig::paper(scheme);
                config.units = partition;
                const fetch::FetchStats want =
                    serialFetch(image, program, trace, config);
                ASSERT_EQ(want.fetches, fetches) << "trace too short";
                for (const bool record : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << schemeClassName(scheme) << ' '
                                 << fetches << " fetches"
                                 << (partition ? ", units" : ", plain")
                                 << (record ? ", recorded" : ""));
                    config.recordCacheStats = record;
                    config.recordHotStats = record;
                    const fetch::FetchStats got = fetch::simulateFetch(
                        image, program, trace, config);
                    expectSameCounters(got, want);
                    EXPECT_EQ(got.cacheStats.recorded, record);
                    if (got.cacheStats.recorded) {
                        EXPECT_EQ(got.cacheStats.fetches, fetches);
                    }
                }
            }
        }
    }
}

/**
 * A recorded simulation has two readers of its memory stream, the
 * kernel and the CACHE stream reader. When the walk fails, its one
 * publish(kFailed) must release both: a reader left waiting would
 * hang the simulation.
 */
TEST(MemoryStream, FailureReleasesEveryReader)
{
    using fetch::MemoryStream;
    MemoryStream stream(4);
    std::atomic<int> started{0};
    const auto reader = [&] {
        ++started;
        return stream.await(0);
    };
    auto first = std::async(std::launch::async, reader);
    auto second = std::async(std::launch::async, reader);
    while (started.load() < 2)
        std::this_thread::yield();
    // Give both time to block in wait(); a reader that has not yet
    // waited sees kFailed at once, so the test cannot pass falsely.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stream.publish(MemoryStream::kFailed);
    const auto released = [](std::future<std::size_t> &f) {
        return f.wait_for(std::chrono::seconds(10)) ==
               std::future_status::ready;
    };
    const bool both = released(first) && released(second);
    // A stuck reader would block its future's destructor for good.
    for (int i = 0; !both && i < 2; ++i)
        stream.publish(MemoryStream::kFailed);
    ASSERT_TRUE(both) << "publish(kFailed) left a reader waiting";
    EXPECT_EQ(first.get(), MemoryStream::kFailed);
    EXPECT_EQ(second.get(), MemoryStream::kFailed);
}

} // namespace
