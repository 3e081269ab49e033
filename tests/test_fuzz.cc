/**
 * @file
 * Differential fuzzing of the whole toolchain: deterministic random
 * tinkerc programs (bounded loops, guarded division, in-bounds
 * indexing) must produce the same exit value under
 *
 *   -O2 + hoisting,  -O2 alone,  -O0,  and a 1-wide machine,
 *
 * and every compressed/tailored image of the -O2 build must decode
 * back bit-exactly. Any disagreement is a compiler, scheduler,
 * allocator, emulator or codec bug.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "codec/codec.hh"
#include "compiler/driver.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "fetch/att.hh"
#include "fetch/fetch_sim.hh"
#include "isa/baseline.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/tailored.hh"
#include "sim/emulator.hh"
#include "support/rng.hh"

#include "program_gen.hh"

namespace {

using tepic::support::Rng;
using tepic::test::ProgramGen;

class FuzzDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzDifferential, AllConfigsAgree)
{
    ProgramGen gen(std::uint64_t(GetParam()) * 2654435761u + 17);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);

    using tepic::compiler::CompileOptions;
    using tepic::compiler::compileSource;

    tepic::sim::EmulatorConfig emu;
    emu.maxMops = 20'000'000;  // generated programs are small
    emu.recordTrace = false;
    auto run = [&](const CompileOptions &options) {
        auto compiled = compileSource(source, options);
        return tepic::sim::emulate(compiled.program, compiled.data,
                                   emu).exitValue;
    };

    CompileOptions full;  // -O2 + hoisting (defaults)
    CompileOptions no_hoist;
    no_hoist.hoist.enabled = false;
    CompileOptions o0;
    o0.optimise = false;
    o0.hoist.enabled = false;
    CompileOptions narrow;
    narrow.machine.issueWidth = 1;
    narrow.machine.memoryUnits = 1;

    const std::int32_t reference = run(full);
    EXPECT_EQ(run(no_hoist), reference);
    EXPECT_EQ(run(o0), reference);
    EXPECT_EQ(run(narrow), reference);
}

TEST_P(FuzzDifferential, ImagesRoundTrip)
{
    ProgramGen gen(std::uint64_t(GetParam()) * 40503u + 3);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);

    tepic::core::PipelineConfig config;
    config.profileGuided = false;
    config.maxMops = 20'000'000;
    // Round-tripping needs every image but no trace or decoders.
    using tepic::core::ArtifactKind;
    const auto artifacts = tepic::core::ArtifactEngine::buildUncached(
        source,
        tepic::core::ArtifactRequest{
            ArtifactKind::kBase, ArtifactKind::kByte,
            ArtifactKind::kStream, ArtifactKind::kFull,
            ArtifactKind::kTailored},
        config);
    tepic::core::verifyRoundTrips(artifacts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range(0, 25));

class FuzzStallTiling : public ::testing::TestWithParam<int>
{
};

/**
 * The stall-cause tiling invariant must survive arbitrary penalty
 * constants and fetch configurations, not just the Table-1 defaults:
 * attribution is structural, so no CyclePenalties value may break
 *
 *   mispredict + l1Refill + decodeStage + atbMiss == stallCycles.
 */
TEST_P(FuzzStallTiling, CausesTileUnderRandomConfigs)
{
    const std::uint64_t seed =
        std::uint64_t(GetParam()) * 2246822519u + 101;
    ProgramGen gen(seed);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);

    tepic::sim::EmulatorConfig emu_config;
    emu_config.maxMops = 20'000'000;
    auto compiled = tepic::compiler::compileSource(source);
    auto emu = tepic::sim::emulate(compiled.program, compiled.data,
                                   emu_config);
    const auto base_image =
        tepic::isa::buildBaselineImage(compiled.program);
    const auto full = tepic::schemes::compressFull(compiled.program);

    Rng rng(seed ^ 0xfe7c);
    using tepic::fetch::SchemeClass;
    for (auto scheme :
         {SchemeClass::kBase, SchemeClass::kTailored,
          SchemeClass::kCompressed}) {
        auto config = tepic::fetch::FetchConfig::paper(scheme);
        config.penalties.mispredictRefill = unsigned(rng.below(10));
        config.penalties.mispredictMissBase = unsigned(rng.below(10));
        config.penalties.tailoredMissExtra = unsigned(rng.below(10));
        config.penalties.compressedMissExtra = unsigned(rng.below(10));
        config.penalties.compressedDecodeStage =
            unsigned(rng.below(10));
        config.penalties.atbMissPenalty = unsigned(rng.below(10));
        config.atbEntries = unsigned(rng.range(1, 64));
        config.l0CapacityOps = unsigned(rng.range(4, 64));
        config.recordHotStats = rng.below(2) == 0;

        const auto &image = scheme == SchemeClass::kCompressed
            ? full.image
            : base_image;
        const auto stats = tepic::fetch::simulateFetch(
            image, compiled.program, emu.trace, config);
        SCOPED_TRACE(tepic::fetch::schemeClassName(scheme));
        EXPECT_EQ(stats.mispredictStallCycles +
                      stats.refillStallCycles +
                      stats.decodeStallCycles + stats.atbStallCycles,
                  stats.stallCycles);
        EXPECT_EQ(stats.cycles, stats.idealCycles + stats.stallCycles);
        if (scheme != SchemeClass::kCompressed) {
            EXPECT_EQ(stats.l0SavedCycles, 0u);
        }

        // The decoded-block cache is host-side only: re-running the
        // identical configuration with a cache attached must leave
        // every architectural statistic bit-identical.
        const auto decoder = scheme == SchemeClass::kCompressed
            ? tepic::codec::makeDecoder(full)
            : tepic::codec::makeBaseDecoder(base_image);
        tepic::codec::DecodedBlockCache cache(*decoder);
        auto cached_config = config;
        cached_config.decodedBlocks = &cache;
        const auto cached = tepic::fetch::simulateFetch(
            image, compiled.program, emu.trace, cached_config);
        EXPECT_EQ(cached.cycles, stats.cycles);
        EXPECT_EQ(cached.idealCycles, stats.idealCycles);
        EXPECT_EQ(cached.stallCycles, stats.stallCycles);
        EXPECT_EQ(cached.mispredictStallCycles,
                  stats.mispredictStallCycles);
        EXPECT_EQ(cached.refillStallCycles, stats.refillStallCycles);
        EXPECT_EQ(cached.decodeStallCycles, stats.decodeStallCycles);
        EXPECT_EQ(cached.atbStallCycles, stats.atbStallCycles);
        EXPECT_EQ(cached.l0SavedCycles, stats.l0SavedCycles);
        EXPECT_EQ(cached.busBitFlips, stats.busBitFlips);
        EXPECT_EQ(cached.bytesTransferred, stats.bytesTransferred);
        EXPECT_EQ(cached.linesTransferred, stats.linesTransferred);
        EXPECT_EQ(cached.l1Hits, stats.l1Hits);
        EXPECT_EQ(cached.l1Misses, stats.l1Misses);
        EXPECT_EQ(cached.l0Hits, stats.l0Hits);
        EXPECT_EQ(cached.l0Misses, stats.l0Misses);
        EXPECT_EQ(cached.atbHits, stats.atbHits);
        EXPECT_EQ(cached.atbMisses, stats.atbMisses);
        EXPECT_EQ(cached.predictionsCorrect,
                  stats.predictionsCorrect);
        EXPECT_EQ(cached.predictionsWrong, stats.predictionsWrong);
        EXPECT_EQ(cached.blocksFetched, stats.blocksFetched);
        EXPECT_EQ(cached.opsDelivered, stats.opsDelivered);
        // And the cache itself must have decoded each touched static
        // block exactly once: misses are bounded by the static block
        // count while hits+misses count every dynamic fetch.
        EXPECT_LE(cache.misses(), cache.size());
        EXPECT_EQ(cache.hits() + cache.misses(),
                  stats.blocksFetched);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStallTiling,
                         ::testing::Range(0, 10));

class FuzzSizeTiling : public ::testing::TestWithParam<int>
{
};

/**
 * The size-provenance tiling invariant must survive arbitrary stream
 * cuts, not just the six committed configurations: for any random
 * partition of the 40-bit op into streams, every scheme's ledger
 * leaves (and the ATT's) must still sum to the artifact size exactly.
 */
TEST_P(FuzzSizeTiling, LedgersTileUnderRandomStreamCuts)
{
    const std::uint64_t seed =
        std::uint64_t(GetParam()) * 2654435761u + 977;
    ProgramGen gen(seed);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);

    auto compiled = tepic::compiler::compileSource(source);
    const auto &program = compiled.program;

    auto expect_tiles = [](const tepic::isa::Image &image) {
        SCOPED_TRACE(image.scheme);
        EXPECT_FALSE(image.ledger.empty());
        EXPECT_EQ(image.ledger.totalBits(), image.bitSize);
    };

    const auto base = tepic::isa::buildBaselineImage(program);
    expect_tiles(base);
    expect_tiles(tepic::schemes::compressByte(program).image);
    const auto full = tepic::schemes::compressFull(program);
    expect_tiles(full.image);
    const auto tailored =
        tepic::schemes::TailoredIsa::build(program).encode(program);
    expect_tiles(tailored);

    const auto att = tepic::fetch::Att::build(full.image, program);
    EXPECT_EQ(att.ledger().totalBits(), att.totalBits());

    // Random stream cuts: partition the 40 op bits into 2..6 streams
    // of random widths summing to exactly kOpBits.
    Rng rng(seed ^ 0x51ce);
    for (int cut = 0; cut < 3; ++cut) {
        tepic::schemes::StreamConfig config;
        config.name = "fuzz" + std::to_string(cut);
        unsigned remaining = tepic::isa::kOpBits;
        const unsigned streams = unsigned(rng.range(2, 6));
        for (unsigned s = 0; s + 1 < streams; ++s) {
            const unsigned max_width =
                remaining - (streams - 1 - s);  // >=1 bit per stream
            const unsigned width = unsigned(
                rng.range(1, std::int64_t(std::min(max_width, 20u))));
            config.widths.push_back(width);
            remaining -= width;
        }
        config.widths.push_back(remaining);
        SCOPED_TRACE(config.name + " streams=" +
                     std::to_string(streams));
        expect_tiles(
            tepic::schemes::compressStream(program, config).image);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSizeTiling,
                         ::testing::Range(0, 8));

class FuzzCacheTiling : public ::testing::TestWithParam<int>
{
};

/**
 * The 3C classification must tile L1 misses exactly for arbitrary
 * cache geometries and sampling configurations, the recorder's
 * counters must agree with the simulator's own, and attaching the
 * recorder must be architecturally invisible.
 */
TEST_P(FuzzCacheTiling, ThreeCTilesUnderRandomGeometries)
{
    const std::uint64_t seed =
        std::uint64_t(GetParam()) * 2654435761u + 77;
    ProgramGen gen(seed);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);

    tepic::sim::EmulatorConfig emu_config;
    emu_config.maxMops = 20'000'000;
    auto compiled = tepic::compiler::compileSource(source);
    auto emu = tepic::sim::emulate(compiled.program, compiled.data,
                                   emu_config);
    const auto base_image =
        tepic::isa::buildBaselineImage(compiled.program);
    const auto full = tepic::schemes::compressFull(compiled.program);

    Rng rng(seed ^ 0x3c3c);
    using tepic::fetch::SchemeClass;
    for (auto scheme :
         {SchemeClass::kBase, SchemeClass::kTailored,
          SchemeClass::kCompressed}) {
        SCOPED_TRACE(tepic::fetch::schemeClassName(scheme));
        auto config = tepic::fetch::FetchConfig::paper(scheme);
        config.cache.sets = 1u << rng.range(0, 5);
        config.cache.ways = 1u << rng.range(0, 2);
        config.cache.lineBytes = 8u << rng.range(0, 3);
        config.atbEntries = unsigned(rng.range(1, 64));
        config.l0CapacityOps = unsigned(rng.range(4, 64));
        config.recordCacheStats = true;

        const auto &image = scheme == SchemeClass::kCompressed
            ? full.image
            : base_image;
        const auto stats = tepic::fetch::simulateFetch(
            image, compiled.program, emu.trace, config);

        const auto &cs = stats.cacheStats;
        ASSERT_TRUE(cs.recorded);
        cs.assertTiling();
        EXPECT_EQ(cs.misses,
                  cs.compulsory + cs.capacity + cs.conflict);
        EXPECT_EQ(cs.fetches, stats.blocksFetched);
        EXPECT_EQ(cs.l0Bypasses, stats.l0Hits);
        EXPECT_EQ(cs.misses, stats.l1Misses);
        EXPECT_EQ(cs.hits, stats.l1Hits - stats.l0Hits);
        EXPECT_EQ(cs.atbHits, stats.atbHits);
        EXPECT_EQ(cs.atbMisses, stats.atbMisses);
        // A 1-set cache is fully associative: its shadow twin can
        // never disagree with it, so nothing classifies as conflict.
        if (config.cache.sets == 1) {
            EXPECT_EQ(cs.conflict, 0u);
        }

        // Recording must not move a single architectural counter.
        auto off_config = config;
        off_config.recordCacheStats = false;
        const auto off = tepic::fetch::simulateFetch(
            image, compiled.program, emu.trace, off_config);
        EXPECT_EQ(off.cycles, stats.cycles);
        EXPECT_EQ(off.stallCycles, stats.stallCycles);
        EXPECT_EQ(off.l1Hits, stats.l1Hits);
        EXPECT_EQ(off.l1Misses, stats.l1Misses);
        EXPECT_EQ(off.l0Hits, stats.l0Hits);
        EXPECT_EQ(off.atbHits, stats.atbHits);
        EXPECT_EQ(off.atbMisses, stats.atbMisses);
        EXPECT_EQ(off.busBitFlips, stats.busBitFlips);
        EXPECT_EQ(off.bytesTransferred, stats.bytesTransferred);
        EXPECT_EQ(off.predictionsWrong, stats.predictionsWrong);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCacheTiling,
                         ::testing::Range(0, 8));

} // namespace
