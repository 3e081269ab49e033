/**
 * @file
 * Tests for the parallel artifact engine: cache semantics (pointer
 * equality as the hit witness, superset entries satisfying subset
 * requests), the determinism guarantee (multi-thread output is
 * bit-identical to jobs=1, images and FetchStats alike), selective
 * builds doing no extra work, and the checked accessors failing
 * loudly when an artefact was never requested.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_engine.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using core::ArtifactEngine;
using core::ArtifactKind;
using core::ArtifactRequest;
using core::Artifacts;
using core::BuildRequest;

const std::string &
sourceOf(const char *name)
{
    return workloads::workloadByName(name).source;
}

void
expectSameImage(const isa::Image &a, const isa::Image &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.bitSize, b.bitSize);
    ASSERT_EQ(a.bytes.size(), b.bytes.size());
    EXPECT_EQ(a.bytes, b.bytes);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].bitOffset, b.blocks[i].bitOffset)
            << "block " << i;
        EXPECT_EQ(a.blocks[i].bitSize, b.blocks[i].bitSize)
            << "block " << i;
        EXPECT_EQ(a.blocks[i].numMops, b.blocks[i].numMops)
            << "block " << i;
    }
}

void
expectSameFetchStats(const fetch::FetchStats &a,
                     const fetch::FetchStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.idealCycles, b.idealCycles);
    EXPECT_EQ(a.opsDelivered, b.opsDelivered);
    EXPECT_EQ(a.blocksFetched, b.blocksFetched);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l0Hits, b.l0Hits);
    EXPECT_EQ(a.l0Misses, b.l0Misses);
    EXPECT_EQ(a.atbHits, b.atbHits);
    EXPECT_EQ(a.atbMisses, b.atbMisses);
    EXPECT_EQ(a.predictionsCorrect, b.predictionsCorrect);
    EXPECT_EQ(a.predictionsWrong, b.predictionsWrong);
    EXPECT_EQ(a.linesTransferred, b.linesTransferred);
    EXPECT_EQ(a.busBeats, b.busBeats);
    EXPECT_EQ(a.busBitFlips, b.busBitFlips);
    EXPECT_EQ(a.bytesTransferred, b.bytesTransferred);
}

TEST(ArtifactRequest, SetAlgebraAndParsing)
{
    const auto all = ArtifactRequest::all();
    EXPECT_TRUE(all.has(ArtifactKind::kTrace));
    EXPECT_TRUE(all.contains(ArtifactRequest{ArtifactKind::kByte}));

    const ArtifactRequest base_only{ArtifactKind::kBase};
    EXPECT_TRUE(base_only.has(ArtifactKind::kBase));
    EXPECT_FALSE(base_only.has(ArtifactKind::kFull));
    EXPECT_FALSE(base_only.contains(all));

    // kAtt needs the Full image; normalized() makes that explicit.
    const ArtifactRequest att{ArtifactKind::kAtt};
    EXPECT_TRUE(att.normalized().has(ArtifactKind::kFull));

    EXPECT_EQ(ArtifactRequest::parse("base,full"),
              (ArtifactRequest{ArtifactKind::kBase,
                               ArtifactKind::kFull}));
    EXPECT_EQ(ArtifactRequest::parse("all"), ArtifactRequest::all());
    EXPECT_EQ(ArtifactRequest::parse("none"), ArtifactRequest::none());
    EXPECT_EQ(ArtifactRequest::parse(
                  ArtifactRequest::all().toString()),
              ArtifactRequest::all());
}

TEST(ArtifactEngine, CacheHitIsPointerEqual)
{
    ArtifactEngine engine(1);
    const auto first =
        engine.build(sourceOf("matmul"), ArtifactRequest::all());
    const auto second =
        engine.build(sourceOf("matmul"), ArtifactRequest::all());
    EXPECT_EQ(first.get(), second.get());

    const auto stats = engine.stats();
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.cacheMisses, 1u);
    EXPECT_EQ(stats.compiles, 1u);
}

TEST(ArtifactEngine, SupersetEntrySatisfiesSubsetRequest)
{
    ArtifactEngine engine(1);
    const auto everything =
        engine.build(sourceOf("matmul"), ArtifactRequest::all());
    const auto base_only = engine.build(
        sourceOf("matmul"), ArtifactRequest{ArtifactKind::kBase});
    EXPECT_EQ(everything.get(), base_only.get());
    EXPECT_EQ(engine.stats().compiles, 1u);
}

/** Converts to any member type: counts an aggregate's members. */
struct AnyMember
{
    template <typename T> operator T() const;
};

template <typename T, typename... Members>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return memberCount<T, Members..., AnyMember>();
    else
        return sizeof...(Members);
}

TEST(ArtifactEngine, DifferentConfigMissesTheCache)
{
    // One change per settable PipelineConfig value; each must move
    // the cache key, or two different builds would share an entry.
    using Change = void (*)(core::PipelineConfig &);
    const std::pair<const char *, Change> changes[] = {
        {"compile.optimise",
         [](core::PipelineConfig &c) { c.compile.optimise = false; }},
        {"compile.machine.issueWidth",
         [](core::PipelineConfig &c) { c.compile.machine.issueWidth = 4; }},
        {"compile.machine.memoryUnits",
         [](core::PipelineConfig &c) { c.compile.machine.memoryUnits = 1; }},
        {"compile.machine.branchUnits",
         [](core::PipelineConfig &c) { c.compile.machine.branchUnits = 2; }},
        {"compile.hoist.enabled",
         [](core::PipelineConfig &c) { c.compile.hoist.enabled = false; }},
        {"compile.hoist.maxOpsPerEdge",
         [](core::PipelineConfig &c) { c.compile.hoist.maxOpsPerEdge = 2; }},
        {"profileGuided",
         [](core::PipelineConfig &c) { c.profileGuided = false; }},
        {"maxMops", [](core::PipelineConfig &c) { c.maxMops = 1000; }},
    };
    // A value added to any of these structs must join the table (and
    // the key): the leaf count below is the table's size.
    const std::size_t leaves =
        memberCount<core::PipelineConfig>() - 1 +
        memberCount<compiler::CompileOptions>() - 2 +
        memberCount<isa::MachineConfig>() +
        memberCount<asmgen::HoistOptions>();
    EXPECT_EQ(leaves, std::size(changes))
        << "a PipelineConfig value is missing from this table";

    const std::string source = sourceOf("matmul");
    std::vector<std::uint64_t> keys{core::pipelineCacheKey(source, {})};
    for (const auto &[name, change] : changes) {
        core::PipelineConfig config;
        change(config);
        const std::uint64_t key = core::pipelineCacheKey(source, config);
        for (std::uint64_t seen : keys)
            EXPECT_NE(key, seen) << name << " does not move the key";
        keys.push_back(key);
    }

    ArtifactEngine engine(1);
    const ArtifactRequest req{ArtifactKind::kBase};
    core::PipelineConfig other;
    other.compile.optimise = false;
    const auto a = engine.build(source, req);
    const auto b = engine.build(source, req, other);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(engine.stats().compiles, 2u);
}

TEST(ArtifactEngine, BatchCoalescesDuplicates)
{
    ArtifactEngine engine(1);
    const BuildRequest req{sourceOf("matmul"),
                           ArtifactRequest::all(),
                           {},
                           {}};
    const auto built = engine.buildMany({req, req, req});
    ASSERT_EQ(built.size(), 3u);
    EXPECT_EQ(built[0].get(), built[1].get());
    EXPECT_EQ(built[0].get(), built[2].get());
    EXPECT_EQ(engine.stats().compiles, 1u);
}

TEST(ArtifactEngine, SelectiveRequestBuildsNothingExtra)
{
    // The acceptance ablation: a {Base}-only request must build no
    // Huffman and no tailored image — witnessed by the counters.
    ArtifactEngine engine(1);
    const auto a = engine.build(
        sourceOf("matmul"),
        ArtifactRequest{ArtifactKind::kBase, ArtifactKind::kTrace});
    EXPECT_TRUE(a->has(ArtifactKind::kBase));
    EXPECT_FALSE(a->has(ArtifactKind::kFull));
    EXPECT_FALSE(a->has(ArtifactKind::kTailored));

    const auto stats = engine.stats();
    EXPECT_EQ(stats.baseImages, 1u);
    EXPECT_EQ(stats.huffmanImages(), 0u);
    EXPECT_EQ(stats.tailoredImages, 0u);
    EXPECT_EQ(stats.attBuilds, 0u);
}

TEST(ArtifactEngine, MultiThreadOutputIsBitIdenticalToSerial)
{
    // The determinism guarantee, end to end: build the same two
    // workloads with jobs=1 and jobs=4 and require every image, the
    // execution results, and the downstream fetch simulations to be
    // bit-identical.
    ArtifactEngine serial(1);
    ArtifactEngine parallel(4);

    std::vector<BuildRequest> requests;
    for (const char *name : {"matmul", "fir"})
        requests.push_back(
            {sourceOf(name), ArtifactRequest::all(), {}, {}});

    const auto from_serial = serial.buildMany(requests);
    const auto from_parallel = parallel.buildMany(requests);
    ASSERT_EQ(from_serial.size(), from_parallel.size());

    for (std::size_t w = 0; w < from_serial.size(); ++w) {
        const Artifacts &s = *from_serial[w];
        const Artifacts &p = *from_parallel[w];

        EXPECT_EQ(s.execution.exitValue, p.execution.exitValue);
        EXPECT_EQ(s.execution.dynamicOps, p.execution.dynamicOps);

        expectSameImage(s.baseImage(), p.baseImage());
        expectSameImage(s.byteImage().image, p.byteImage().image);
        expectSameImage(s.fullImage().image, p.fullImage().image);
        expectSameImage(s.tailoredImage(), p.tailoredImage());
        ASSERT_EQ(s.streamImages().size(), p.streamImages().size());
        for (std::size_t i = 0; i < s.streamImages().size(); ++i)
            expectSameImage(s.streamImage(i).image,
                            p.streamImage(i).image);

        EXPECT_EQ(s.att().totalBits(), p.att().totalBits());
        EXPECT_EQ(s.att().entryBits(), p.att().entryBits());

        for (auto scheme : {fetch::SchemeClass::kBase,
                            fetch::SchemeClass::kCompressed,
                            fetch::SchemeClass::kTailored}) {
            expectSameFetchStats(core::runFetch(s, scheme),
                                 core::runFetch(p, scheme));
        }
    }
}

TEST(ArtifactEngine, UncachedBuildMatchesEngineOutput)
{
    // The serial, uncached value build must match a cached, parallel
    // engine build exactly.
    const Artifacts uncached = ArtifactEngine::buildUncached(
        sourceOf("matmul"), ArtifactRequest::all(), {});
    ArtifactEngine engine(2);
    const auto engined =
        engine.build(sourceOf("matmul"), ArtifactRequest::all());
    expectSameImage(uncached.baseImage(), engined->baseImage());
    expectSameImage(uncached.fullImage().image,
                    engined->fullImage().image);
    expectSameImage(uncached.tailoredImage(), engined->tailoredImage());
}

TEST(ArtifactEngine, ClearCacheForcesRebuild)
{
    ArtifactEngine engine(1);
    const ArtifactRequest req{ArtifactKind::kBase};
    const auto a = engine.build(sourceOf("matmul"), req);
    engine.clearCache();
    const auto b = engine.build(sourceOf("matmul"), req);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(engine.stats().compiles, 2u);
}

TEST(ArtifactEngine, UnrequestedArtifactFailsLoudly)
{
    // Checked accessors: asking for an artefact that was never
    // requested is a programming error and must not silently return
    // an empty image (TEPIC_FATAL throws, with the kind in the
    // message).
    ArtifactEngine engine(1);
    const auto a = engine.build(
        sourceOf("matmul"), ArtifactRequest{ArtifactKind::kBase});
    EXPECT_THROW((void)a->fullImage(), std::runtime_error);
    EXPECT_THROW((void)a->tailoredIsa(), std::runtime_error);
    EXPECT_THROW((void)a->trace(), std::runtime_error);
    try {
        (void)a->byteImage();
        FAIL() << "byteImage() returned without an artefact";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
}

} // namespace
