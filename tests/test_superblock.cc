/**
 * @file
 * Complex-fetch-unit tests: unit formation respects side-entrance /
 * side-exit / call constraints, geometry is consistent, and the fetch
 * kernel walking units conserves the op stream while reducing ATT
 * entries and predictions, reproduces plain fetch exactly on 1-block
 * units (every organisation and predictor), and keeps every tiling
 * identity on multi-block units.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "compiler/driver.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "fetch/att.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/superblock.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;

struct Built
{
    compiler::CompiledProgram compiled;
    sim::EmulationResult emu;
    isa::Image image;
};

Built
build(const char *src)
{
    Built b;
    b.compiled = compiler::compileSource(src);
    b.emu = sim::emulate(b.compiled.program, b.compiled.data);
    b.image = isa::buildBaselineImage(b.compiled.program);
    return b;
}

const char *kBiasedLoop = R"(
    func main(): int {
        var s = 0;
        for (var i = 0; i < 3000; i = i + 1) {
            if (i % 100 == 0) { s = s + 1000; }  // rare side path
            s = s + i;
            if (i % 97 == 0) { s = s ^ 5; }      // rare again
            s = s * 3;
        }
        return s;
    }
)";

TEST(FetchUnits, FormationBasics)
{
    Built b = build(kBiasedLoop);
    const auto units = fetch::formFetchUnits(b.compiled.program,
                                             b.emu.trace);
    EXPECT_EQ(units.headOf.size(), b.compiled.program.blocks().size());
    EXPECT_GT(units.multiBlockUnits, 0u);
    EXPECT_LT(units.units, b.compiled.program.blocks().size());
    // Partition sanity: every block's head is a head; members are
    // consecutive.
    for (std::size_t blk = 0; blk < units.headOf.size(); ++blk) {
        const isa::BlockId head = units.headOf[blk];
        EXPECT_TRUE(units.isHead(head));
        EXPECT_GE(isa::BlockId(blk), head);
        EXPECT_LT(isa::BlockId(blk), head + units.lengthOf[head]);
    }
}

TEST(FetchUnits, CallsAreNeverAbsorbed)
{
    Built b = build(R"(
        func f(x): int { return x + 1; }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 100; i = i + 1) { s = s + f(i); }
            return s;
        }
    )");
    const auto units = fetch::formFetchUnits(b.compiled.program,
                                             b.emu.trace);
    // A block ending in call/ret must be a unit tail (its follower
    // starts a new unit).
    for (const auto &blk : b.compiled.program.blocks()) {
        bool call_or_ret = false;
        if (!blk.mops.empty())
            for (const auto &op : blk.mops.back().ops())
                if (op.isBranch() &&
                    (op.opcode() == isa::Opcode::kCall ||
                     op.opcode() == isa::Opcode::kRet))
                    call_or_ret = true;
        if (call_or_ret && blk.id + 1 < units.headOf.size()) {
            EXPECT_TRUE(units.isHead(isa::BlockId(blk.id + 1)))
                << "block " << blk.id;
        }
    }
}

TEST(FetchUnits, SimulationConservesOpsAndCutsPredictions)
{
    Built b = build(kBiasedLoop);
    const auto units = fetch::formFetchUnits(b.compiled.program,
                                             b.emu.trace);
    auto config = fetch::FetchConfig::paper(fetch::SchemeClass::kBase);
    const auto plain = fetch::simulateFetch(
        b.image, b.compiled.program, b.emu.trace, config);
    config.units = &units;
    const auto unit = fetch::simulateFetch(
        b.image, b.compiled.program, b.emu.trace, config);

    EXPECT_EQ(unit.opsDelivered, plain.opsDelivered);
    EXPECT_EQ(unit.idealCycles, plain.idealCycles);
    EXPECT_EQ(unit.blocksFetched, plain.blocksFetched);
    // One fetch (and one prediction) per unit traversal, not per
    // block.
    EXPECT_LT(unit.fetches, plain.fetches);
    EXPECT_EQ(unit.predictionsCorrect + unit.predictionsWrong,
              unit.fetches);
    EXPECT_LE(unit.sideExitRate(), 1.0);
    // The ATT shrinks to one entry per unit.
    const auto plain_att =
        fetch::Att::build(b.image, b.compiled.program);
    const auto unit_att =
        fetch::Att::build(b.image, b.compiled.program, &units);
    EXPECT_EQ(unit_att.totalBits(),
              std::uint64_t(unit_att.entryBits()) * units.units);
    EXPECT_LT(unit_att.totalBits(), plain_att.totalBits());
    EXPECT_EQ(unit_att.ledger().totalBits(), unit_att.totalBits());
}

/** go, gcc and fir built for all three fetch organisations. */
const std::vector<std::pair<std::string, core::Artifacts>> &
schemeArtifacts()
{
    static const auto instance = [] {
        std::vector<std::pair<std::string, core::Artifacts>> built;
        for (const char *name : {"go", "gcc", "fir"}) {
            built.emplace_back(
                name, core::ArtifactEngine::buildUncached(
                          workloads::workloadByName(name).source,
                          core::ArtifactRequest{
                              core::ArtifactKind::kBase,
                              core::ArtifactKind::kFull,
                              core::ArtifactKind::kTailored,
                              core::ArtifactKind::kTrace},
                          {}));
        }
        return built;
    }();
    return instance;
}

constexpr fetch::SchemeClass kSchemes[] = {
    fetch::SchemeClass::kBase, fetch::SchemeClass::kCompressed,
    fetch::SchemeClass::kTailored};

/** Every architectural FetchStats counter, stall causes included. */
void
expectSameCounters(const fetch::FetchStats &a, const fetch::FetchStats &b,
                   const std::string &where)
{
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.idealCycles, b.idealCycles) << where;
    EXPECT_EQ(a.opsDelivered, b.opsDelivered) << where;
    EXPECT_EQ(a.blocksFetched, b.blocksFetched) << where;
    EXPECT_EQ(a.fetches, b.fetches) << where;
    EXPECT_EQ(a.sideExits, b.sideExits) << where;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << where;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << where;
    EXPECT_EQ(a.l0Hits, b.l0Hits) << where;
    EXPECT_EQ(a.l0Misses, b.l0Misses) << where;
    EXPECT_EQ(a.atbHits, b.atbHits) << where;
    EXPECT_EQ(a.atbMisses, b.atbMisses) << where;
    EXPECT_EQ(a.predictionsCorrect, b.predictionsCorrect) << where;
    EXPECT_EQ(a.predictionsWrong, b.predictionsWrong) << where;
    EXPECT_EQ(a.linesTransferred, b.linesTransferred) << where;
    EXPECT_EQ(a.busBeats, b.busBeats) << where;
    EXPECT_EQ(a.busBitFlips, b.busBitFlips) << where;
    EXPECT_EQ(a.bytesTransferred, b.bytesTransferred) << where;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << where;
    EXPECT_EQ(a.mispredictStallCycles, b.mispredictStallCycles) << where;
    EXPECT_EQ(a.refillStallCycles, b.refillStallCycles) << where;
    EXPECT_EQ(a.decodeStallCycles, b.decodeStallCycles) << where;
    EXPECT_EQ(a.atbStallCycles, b.atbStallCycles) << where;
    EXPECT_EQ(a.l0SavedCycles, b.l0SavedCycles) << where;
}

TEST(FetchUnits, DegenerateUnitsMatchPlainSim)
{
    // With absorption disabled (maxBlocks = 1) a unit run must agree
    // with the plain one on every counter, for every organisation and
    // every predictor kind.
    fetch::FetchUnitConfig no_merge;
    no_merge.maxBlocks = 1;
    for (const auto &[name, a] : schemeArtifacts()) {
        const auto units = fetch::formFetchUnits(a.compiled.program,
                                                 a.trace(), no_merge);
        EXPECT_EQ(units.units, a.compiled.program.blocks().size());
        for (const auto scheme : kSchemes) {
            for (const auto kind : {fetch::PredictorKind::kBimodal,
                                    fetch::PredictorKind::kGshare,
                                    fetch::PredictorKind::kPas}) {
                auto config = fetch::FetchConfig::paper(scheme);
                config.predictor.kind = kind;
                const auto &image = core::imageFor(a, scheme);
                const auto plain = fetch::simulateFetch(
                    image, a.compiled.program, a.trace(), config);
                config.units = &units;
                const auto unit = fetch::simulateFetch(
                    image, a.compiled.program, a.trace(), config);
                expectSameCounters(
                    unit, plain,
                    name + "/" + fetch::schemeClassName(scheme) + "/" +
                        fetch::predictorKindName(kind));
                EXPECT_EQ(unit.sideExits, 0u);
            }
        }
    }
}

TEST(FetchUnits, UnitRunsTileStallsMissesAndHotness)
{
    // Multi-block units (up to 4 blocks) on every organisation, both
    // recorders on: the stall taxonomy, the 3C split and the per-head
    // hot attribution must tile the unit run's own totals exactly.
    for (const auto &[name, a] : schemeArtifacts()) {
        const auto units =
            fetch::formFetchUnits(a.compiled.program, a.trace());
        for (const auto scheme : kSchemes) {
            const std::string where =
                name + "/" + fetch::schemeClassName(scheme);
            auto config = fetch::FetchConfig::paper(scheme);
            config.units = &units;
            config.recordCacheStats = true;
            config.recordHotStats = true;
            const auto s = fetch::simulateFetch(
                core::imageFor(a, scheme), a.compiled.program,
                a.trace(), config);

            EXPECT_EQ(s.blocksFetched, a.trace().events.size()) << where;
            EXPECT_LT(s.fetches, s.blocksFetched) << where;
            EXPECT_EQ(s.predictionsCorrect + s.predictionsWrong,
                      s.fetches)
                << where;
            EXPECT_EQ(s.cycles, s.idealCycles + s.stallCycles) << where;
            EXPECT_EQ(s.mispredictStallCycles + s.refillStallCycles +
                          s.decodeStallCycles + s.atbStallCycles,
                      s.stallCycles)
                << where;
            EXPECT_GT(s.stallCycles, 0u) << where;

            const auto &cs = s.cacheStats;
            ASSERT_TRUE(cs.recorded);
            EXPECT_EQ(cs.fetches, s.fetches) << where;
            EXPECT_EQ(cs.misses, s.l1Misses) << where;
            EXPECT_EQ(cs.compulsory + cs.capacity + cs.conflict,
                      s.l1Misses)
                << where;

            const auto &hs = s.hotStats;
            ASSERT_TRUE(hs.recorded);
            std::uint64_t fetches = 0, cycles = 0, stalls = 0;
            for (std::size_t b = 0; b < hs.blockFetches.size(); ++b) {
                if (!units.isHead(isa::BlockId(b))) {
                    EXPECT_EQ(hs.blockFetches[b], 0u) << where;
                }
                fetches += hs.blockFetches[b];
                cycles += hs.blockCycles[b];
                stalls += hs.blockStalls[b];
            }
            EXPECT_EQ(fetches, s.fetches) << where;
            EXPECT_EQ(cycles, s.cycles) << where;
            EXPECT_EQ(stalls, s.stallCycles) << where;
            EXPECT_EQ(hs.mispredictStallCycles, s.mispredictStallCycles)
                << where;
            EXPECT_EQ(hs.mispredicts,
                      s.predictionsWrong + hs.unconsumedMispredicts)
                << where;
        }
    }
}

TEST(FetchUnits, WorksOnRealWorkloads)
{
    for (const char *name : {"go", "m88ksim"}) {
        // Unit formation needs only the baseline image + the trace.
        const auto artifacts = core::ArtifactEngine::buildUncached(
            workloads::workloadByName(name).source,
            core::ArtifactRequest{core::ArtifactKind::kBase,
                                  core::ArtifactKind::kTrace},
            {});
        const auto units = fetch::formFetchUnits(
            artifacts.compiled.program, artifacts.execution.trace);
        auto config =
            fetch::FetchConfig::paper(fetch::SchemeClass::kBase);
        config.units = &units;
        const auto unit = fetch::simulateFetch(
            artifacts.baseImage(), artifacts.compiled.program,
            artifacts.execution.trace, config);
        EXPECT_EQ(unit.opsDelivered, artifacts.execution.dynamicOps)
            << name;
        EXPECT_GT(unit.ipc(), 0.5) << name;
    }
}

} // namespace
