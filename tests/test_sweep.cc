/**
 * @file
 * Design-space sweep tests: Pareto dominance on hand-traced fixtures,
 * grid expansion order, configuration normalization, the driver's
 * determinism contract (the structure section is byte-identical for
 * any jobs value; the front is invariant under input order), and the
 * factored evaluation against the composed kernel: control streams
 * are scheme-independent, the LRU stack's 3C verdicts equal one naive
 * shadow list per capacity, and every folded point equals
 * fetch::simulateFetch field by field on random programs and grids.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/sweep.hh"
#include "decoder/complexity.hh"
#include "fetch/att.hh"
#include "fetch/cache_stats.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/fetch_stages.hh"
#include "fetch/lru_stack.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/sweep.hh"
#include "support/thread_pool.hh"
#include "workloads/workload.hh"

#include "program_gen.hh"

namespace {

using namespace tepic;
using support::sweep::Objective;
using support::sweep::Point;
using support::sweep::Sense;

// The objective space of the driver: size (min), IPC (max), decoder
// transistors (min), bus bit flips (min).
std::vector<Objective>
axes()
{
    return {{"size", Sense::kMin},
            {"ipc", Sense::kMax},
            {"decoder", Sense::kMin},
            {"flips", Sense::kMin}};
}

// Hand-traced trio: each point holds at least one best axis, so none
// dominates another (mirrored by the sweep fixture of the
// tools/tepic_reports.py tests).
//   base        (32000, 800000,   0, 5000)  best decoder
//   compressed  (20000, 727272, 400, 3000)  best size + flips
//   tailored    (24000, 842105, 150, 4000)  best IPC
std::vector<Point>
trio()
{
    return {{"base", {32000, 800000, 0, 5000}},
            {"compressed", {20000, 727272, 400, 3000}},
            {"tailored", {24000, 842105, 150, 4000}}};
}

TEST(SweepDominance, HandTraced)
{
    const auto objs = axes();
    const Point better{"a", {100, 900, 10, 50}};
    const Point worse{"b", {120, 900, 10, 50}};      // larger size
    const Point slower{"c", {100, 800, 10, 50}};     // less IPC
    const Point elsewhere{"d", {90, 950, 20, 50}};   // trades axes

    EXPECT_TRUE(support::sweep::dominates(better, worse, objs));
    EXPECT_FALSE(support::sweep::dominates(worse, better, objs));
    EXPECT_TRUE(support::sweep::dominates(better, slower, objs));
    // d is smaller and faster but needs a bigger decoder: no relation.
    EXPECT_FALSE(support::sweep::dominates(better, elsewhere, objs));
    EXPECT_FALSE(support::sweep::dominates(elsewhere, better, objs));
}

TEST(SweepDominance, EqualPointsDoNotDominate)
{
    const auto objs = axes();
    const Point a{"a", {100, 900, 10, 50}};
    const Point b{"b", {100, 900, 10, 50}};
    EXPECT_FALSE(support::sweep::dominates(a, b, objs));
    EXPECT_FALSE(support::sweep::dominates(b, a, objs));

    // Both survive to the front (ordered by key as the tie-break).
    const auto front = support::sweep::paretoFront({a, b}, objs);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0], 0u);
    EXPECT_EQ(front[1], 1u);
}

TEST(SweepFront, HandTracedTrio)
{
    const auto points = trio();
    const auto front = support::sweep::paretoFront(points, axes());
    // All three are Pareto-optimal; dominance order sorts by the
    // oriented tuple, so the smallest image comes first.
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(points[front[0]].key, "compressed");
    EXPECT_EQ(points[front[1]].key, "tailored");
    EXPECT_EQ(points[front[2]].key, "base");
}

TEST(SweepFront, DegradedPointDropsOff)
{
    auto points = trio();
    // Degrade tailored until compressed beats it on every axis.
    points[2].values = {24000, 666666, 500, 6000};
    const auto front = support::sweep::paretoFront(points, axes());
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(points[front[0]].key, "compressed");
    EXPECT_EQ(points[front[1]].key, "base");
}

TEST(SweepFront, InvariantUnderInputOrder)
{
    // A pseudo-random cloud with a deterministic seed; the front's
    // *keys* must be identical however the input is permuted.
    std::mt19937 rng(1234);
    std::vector<Point> points;
    for (int i = 0; i < 40; ++i) {
        points.push_back({"p" + std::to_string(i),
                          {std::int64_t(rng() % 1000),
                           std::int64_t(rng() % 1000),
                           std::int64_t(rng() % 100),
                           std::int64_t(rng() % 500)}});
    }
    const auto objs = axes();
    const auto frontKeys = [&](const std::vector<Point> &pts) {
        std::vector<std::string> keys;
        for (std::size_t idx : support::sweep::paretoFront(pts, objs))
            keys.push_back(pts[idx].key);
        return keys;
    };
    const auto reference = frontKeys(points);
    EXPECT_GE(reference.size(), 1u);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(points.begin(), points.end(), rng);
        EXPECT_EQ(frontKeys(points), reference);
    }
}

TEST(SweepGridExpansion, RowMajorOrder)
{
    const auto grid = support::sweep::expandGrid({2, 3});
    ASSERT_EQ(grid.size(), 6u);
    // Last dimension varies fastest.
    EXPECT_EQ(grid[0], (std::vector<std::size_t>{0, 0}));
    EXPECT_EQ(grid[1], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(grid[2], (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(grid[3], (std::vector<std::size_t>{1, 0}));
    EXPECT_EQ(grid[5], (std::vector<std::size_t>{1, 2}));

    EXPECT_TRUE(support::sweep::expandGrid({2, 0, 3}).empty());
    const auto none = support::sweep::expandGrid({});
    ASSERT_EQ(none.size(), 1u);
    EXPECT_TRUE(none[0].empty());
}

TEST(SweepConfig, KeySpellsEveryDimension)
{
    core::sweep::SweepConfig config;
    config.scheme = fetch::SchemeClass::kCompressed;
    config.sets = 128;
    config.ways = 4;
    config.lineBytes = 64;
    config.l0Ops = 16;
    config.atbEntries = 32;
    config.predictor = fetch::PredictorKind::kGshare;
    config.penaltyProfile = "slowmem";
    EXPECT_EQ(config.key(),
              "compressed@S128xW4xL64/l0:16/atb:32/p:gshare"
              "/pen:slowmem");
}

TEST(SweepConfig, ExpansionNormalizesL0AndDedups)
{
    core::sweep::SweepGrid grid;
    grid.l0CapacityOps = {16, 32};
    // base and tailored have no L0 buffer: their two l0 values
    // collapse to one l0:0 config each; compressed keeps both.
    const auto configs = core::sweep::expandConfigs(grid);
    ASSERT_EQ(configs.size(), 4u);
    std::size_t compressed = 0;
    for (const auto &config : configs) {
        if (config.scheme == fetch::SchemeClass::kCompressed)
            ++compressed;
        else
            EXPECT_EQ(config.l0Ops, 0u) << config.key();
    }
    EXPECT_EQ(compressed, 2u);
}

TEST(SweepConfig, PenaltyProfilesAreDistinct)
{
    const auto &paper = core::sweep::penaltyProfileByName("paper");
    const auto &slow = core::sweep::penaltyProfileByName("slowmem");
    const auto &deep = core::sweep::penaltyProfileByName("deeppipe");
    EXPECT_LT(paper.penalties.mispredictMissBase,
              slow.penalties.mispredictMissBase);
    EXPECT_LT(paper.penalties.compressedDecodeStage,
              deep.penalties.compressedDecodeStage);
}

TEST(SweepDriver, CiGridMeetsTheFloor)
{
    const auto configs = core::sweep::expandConfigs(
        core::sweep::SweepGrid::ci());
    EXPECT_GE(configs.size(), 200u);  // the CI gate's floor
}

TEST(SweepDriver, RejectsGeometriesOverTheTableCap)
{
    // 65536 x 65536 lines wraps to 0 in 32 bits; 65536 x 2 does not
    // wrap but still exceeds the cap.
    core::ArtifactEngine engine(1);
    for (unsigned ways : {2u, 65536u}) {
        core::sweep::SweepOptions options;
        options.grid.cacheSets = {65536};
        options.grid.cacheWays = {1, ways};
        try {
            core::sweep::runSweep(engine, options);
            ADD_FAILURE() << "65536 x " << ways << " was accepted";
        } catch (const support::FatalError &error) {
            EXPECT_EQ(error.message(),
                      "sweep cache geometry 65536 sets x " +
                          std::to_string(ways) +
                          " ways exceeds 65536 lines");
        }
    }
    EXPECT_EQ(engine.stats().compiles, 0u);
}

TEST(SweepDriver, StructureByteIdenticalAcrossJobs)
{
    core::ArtifactEngine engine(1);
    core::sweep::SweepOptions options;
    options.grid.workloads = {"fir"};
    options.grid.cacheSets = {128, 256};
    options.grid.cacheWays = {1, 2};

    options.jobs = 1;
    const auto serial = core::sweep::runSweep(engine, options);
    options.jobs = 8;
    const auto fanned = core::sweep::runSweep(engine, options);

    EXPECT_EQ(core::sweep::structureJson(serial),
              core::sweep::structureJson(fanned));
    EXPECT_EQ(serial.points.size(),
              options.grid.workloads.size() * serial.configs.size());
}

/** What simulateFetch says about @p config, with the CACHE recorder
 *  attached for the 3C split: the per-point kernel. */
core::sweep::PointMetrics
composedPoint(const core::Artifacts &artifacts,
              const core::sweep::SweepConfig &config)
{
    const isa::Image &image = core::imageFor(artifacts, config.scheme);
    fetch::FetchConfig fetch_config = config.fetchConfig();
    fetch_config.recordCacheStats = true;
    const fetch::FetchStats stats = fetch::simulateFetch(
        image, artifacts.compiled.program, artifacts.trace(),
        fetch_config);
    core::sweep::PointMetrics m;
    m.sizeBits = image.bitSize;
    m.cycles = stats.cycles;
    m.idealCycles = stats.idealCycles;
    m.opsDelivered = stats.opsDelivered;
    m.blocksFetched = stats.blocksFetched;
    m.stallCycles = stats.stallCycles;
    m.mispredictStall = stats.mispredictStallCycles;
    m.refillStall = stats.refillStallCycles;
    m.decodeStall = stats.decodeStallCycles;
    m.atbStall = stats.atbStallCycles;
    m.l0SavedCycles = stats.l0SavedCycles;
    m.l1Hits = stats.l1Hits;
    m.l1Misses = stats.l1Misses;
    m.busBitFlips = stats.busBitFlips;
    m.busBeats = stats.busBeats;
    m.bytesTransferred = stats.bytesTransferred;
    switch (config.scheme) {
      case fetch::SchemeClass::kBase:
        m.decoderTransistors = 0;
        break;
      case fetch::SchemeClass::kCompressed:
        m.decoderTransistors =
            decoder::decoderTransistors(artifacts.fullImage());
        break;
      case fetch::SchemeClass::kTailored:
        m.decoderTransistors =
            decoder::tailoredDecoderTransistors(artifacts.tailoredIsa());
        break;
    }
    m.cacheRecorded = stats.cacheStats.recorded;
    m.compulsory = stats.cacheStats.compulsory;
    m.capacity = stats.cacheStats.capacity;
    m.conflict = stats.cacheStats.conflict;
    return m;
}

void
expectSameMetrics(const core::sweep::PointMetrics &got,
                  const core::sweep::PointMetrics &want,
                  const std::string &key)
{
    SCOPED_TRACE(key);
    EXPECT_EQ(got.sizeBits, want.sizeBits);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.idealCycles, want.idealCycles);
    EXPECT_EQ(got.opsDelivered, want.opsDelivered);
    EXPECT_EQ(got.blocksFetched, want.blocksFetched);
    EXPECT_EQ(got.stallCycles, want.stallCycles);
    EXPECT_EQ(got.mispredictStall, want.mispredictStall);
    EXPECT_EQ(got.refillStall, want.refillStall);
    EXPECT_EQ(got.decodeStall, want.decodeStall);
    EXPECT_EQ(got.atbStall, want.atbStall);
    EXPECT_EQ(got.l0SavedCycles, want.l0SavedCycles);
    EXPECT_EQ(got.l1Hits, want.l1Hits);
    EXPECT_EQ(got.l1Misses, want.l1Misses);
    EXPECT_EQ(got.busBitFlips, want.busBitFlips);
    EXPECT_EQ(got.busBeats, want.busBeats);
    EXPECT_EQ(got.bytesTransferred, want.bytesTransferred);
    EXPECT_EQ(got.decoderTransistors, want.decoderTransistors);
    EXPECT_EQ(got.cacheRecorded, want.cacheRecorded);
    EXPECT_EQ(got.compulsory, want.compulsory);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.conflict, want.conflict);
}

TEST(SweepDriver, PointMatchesDirectSimulation)
{
    core::ArtifactEngine engine(1);
    core::sweep::SweepOptions options;
    options.grid.workloads = {"fir"};
    const auto result = core::sweep::runSweep(engine, options);
    ASSERT_EQ(result.points.size(), 3u);

    // Re-run each scheme's point by hand: same image, same trace,
    // same FetchConfig. The sweep's factored streams and fold must
    // reproduce the composed kernel exactly.
    const auto artifacts = engine.build(
        workloads::workloadByName("fir").source,
        core::ArtifactRequest{
            core::ArtifactKind::kTrace, core::ArtifactKind::kBase,
            core::ArtifactKind::kFull, core::ArtifactKind::kTailored});
    for (const auto &point : result.points) {
        expectSameMetrics(point.metrics,
                          composedPoint(*artifacts, point.config),
                          point.key);
        // The exact stall tiling the validator re-derives.
        EXPECT_EQ(point.metrics.mispredictStall +
                      point.metrics.refillStall +
                      point.metrics.decodeStall + point.metrics.atbStall,
                  point.metrics.stallCycles);
        EXPECT_EQ(point.metrics.idealCycles + point.metrics.stallCycles,
                  point.metrics.cycles);
        if (point.config.scheme == fetch::SchemeClass::kBase) {
            // Base decodes for free.
            EXPECT_EQ(point.metrics.decoderTransistors, 0u);
        }
    }
}

TEST(SweepDriver, AggregatesSumWorkloadPoints)
{
    core::ArtifactEngine engine(1);
    core::sweep::SweepOptions options;
    options.grid.workloads = {"fir", "matmul"};
    const auto result = core::sweep::runSweep(engine, options);

    for (const auto &aggregate : result.aggregates) {
        EXPECT_EQ(aggregate.workloadCount, 2u);
        std::uint64_t cycles = 0, size = 0, flips = 0;
        for (const auto &point : result.points) {
            if (point.config.key() != aggregate.key)
                continue;
            cycles += point.metrics.cycles;
            size += point.metrics.sizeBits;
            flips += point.metrics.busBitFlips;
        }
        EXPECT_EQ(aggregate.cycles, cycles) << aggregate.key;
        EXPECT_EQ(aggregate.sizeBits, size) << aggregate.key;
        EXPECT_EQ(aggregate.busBitFlips, flips) << aggregate.key;
    }

    // Front members are aggregate indices in dominance order: every
    // index valid, no duplicates, none dominated by any aggregate.
    std::vector<support::sweep::Point> cloud;
    for (const auto &aggregate : result.aggregates)
        cloud.push_back(core::sweep::aggregatePoint(aggregate));
    const auto expect =
        support::sweep::paretoFront(cloud, core::sweep::objectives());
    EXPECT_EQ(result.front, expect);
}

TEST(SweepFactored, ControlStreamsSchemeIndependent)
{
    // The ATB is keyed by block id and primed from the program's CFG,
    // so the control stream must not depend on which image the ATT
    // was built from. The factored sweep shares one control stream
    // across all three schemes on the strength of this.
    core::ArtifactEngine engine(support::ThreadPool::hardwareThreads());
    const core::ArtifactRequest request{
        core::ArtifactKind::kTrace, core::ArtifactKind::kBase,
        core::ArtifactKind::kFull, core::ArtifactKind::kTailored};
    std::vector<core::BuildRequest> builds;
    for (const auto &workload : workloads::allWorkloads())
        builds.push_back({workload.source, request, {}, workload.name});
    const auto built = engine.buildMany(builds);

    struct Control
    {
        unsigned atbEntries;
        fetch::PredictorKind predictor;
    };
    const Control controls[] = {
        {16, fetch::PredictorKind::kBimodal},
        {16, fetch::PredictorKind::kGshare},
        {16, fetch::PredictorKind::kPas},
        {64, fetch::PredictorKind::kBimodal},
    };
    for (std::size_t w = 0; w < built.size(); ++w) {
        SCOPED_TRACE(builds[w].label);
        const core::Artifacts &artifacts = *built[w];
        const auto &program = artifacts.compiled.program;
        const fetch::Att base =
            fetch::Att::build(artifacts.baseImage(), program);
        const fetch::Att tailored =
            fetch::Att::build(artifacts.tailoredImage(), program);
        const fetch::Att compressed =
            fetch::Att::build(artifacts.fullImage().image, program);
        for (const Control &control : controls) {
            fetch::PredictorConfig predictor;
            predictor.kind = control.predictor;
            const auto stream = [&](const fetch::Att &att) {
                return core::sweep::recordControlStream(
                    att, artifacts.trace(), control.atbEntries,
                    predictor);
            };
            const core::sweep::ControlStream reference = stream(base);
            EXPECT_EQ(stream(tailored), reference)
                << "atb " << control.atbEntries;
            EXPECT_EQ(stream(compressed), reference)
                << "atb " << control.atbEntries;
        }
    }
}

/** Up to @p most distinct picks from @p pool, at least one. */
template <typename T>
std::vector<T>
pickSome(support::Rng &rng, std::vector<T> pool, std::size_t most)
{
    for (std::size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[rng.below(i)]);
    pool.resize(std::size_t(rng.range(1, std::int64_t(most))));
    return pool;
}

/**
 * A random grid over every dimension the factored evaluation groups
 * by: non-power-of-two sets, 1-4 ways, 16/32/40/64-byte lines, 0-64
 * L0 ops, 1-128 ATB entries, and all three predictors and penalty
 * profiles.
 */
core::sweep::SweepGrid
randomGrid(support::Rng &rng)
{
    core::sweep::SweepGrid grid;
    grid.cacheSets = pickSome<unsigned>(
        rng, {1, 3, 5, 7, 12, 16, 24, 48, 64, 100}, 2);
    grid.cacheWays = pickSome<unsigned>(rng, {1, 2, 3, 4}, 2);
    grid.lineBytes = pickSome<unsigned>(rng, {16, 32, 40, 64}, 2);
    grid.l0CapacityOps = {unsigned(rng.range(0, 64)),
                          unsigned(rng.range(0, 64))};
    grid.atbEntries = {unsigned(rng.range(1, 128)),
                       unsigned(rng.range(1, 128))};
    grid.predictors = {fetch::PredictorKind::kBimodal,
                       fetch::PredictorKind::kGshare,
                       fetch::PredictorKind::kPas};
    grid.penaltyProfiles = {"paper", "slowmem", "deeppipe"};
    return grid;
}

TEST(SweepFactored, MatchesComposedKernel)
{
    for (std::uint64_t round = 0; round < 6; ++round) {
        const std::uint64_t seed = round * 2654435761u + 4099;
        test::ProgramGen gen(seed);
        const std::string source = gen.generate();
        SCOPED_TRACE(source);

        core::PipelineConfig config;
        config.profileGuided = false;
        config.maxMops = 20'000'000;  // generated programs
                                               // are small
        const core::Artifacts artifacts =
            core::ArtifactEngine::buildUncached(
                source,
                core::ArtifactRequest{core::ArtifactKind::kTrace,
                                      core::ArtifactKind::kBase,
                                      core::ArtifactKind::kFull,
                                      core::ArtifactKind::kTailored},
                config);

        support::Rng rng(seed ^ 0x5eed);
        const auto configs =
            core::sweep::expandConfigs(randomGrid(rng));
        // The pool path: three jobs over one workload's streams.
        const auto metrics =
            core::sweep::evaluatePoints({&artifacts}, configs, true, 3);
        ASSERT_EQ(metrics.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            expectSameMetrics(metrics[c],
                              composedPoint(artifacts, configs[c]),
                              configs[c].key());
            EXPECT_TRUE(metrics[c].cacheRecorded);
        }
    }

    // The whole driver on a random grid: the structure is
    // byte-identical serially and on three jobs.
    core::ArtifactEngine engine(1);
    support::Rng rng(77);
    core::sweep::SweepOptions options;
    options.grid = randomGrid(rng);
    options.grid.workloads = {"fir", "matmul"};
    options.jobs = 1;
    const auto serial = core::sweep::runSweep(engine, options);
    options.jobs = 3;
    const auto fanned = core::sweep::runSweep(engine, options);
    EXPECT_EQ(core::sweep::structureJson(serial),
              core::sweep::structureJson(fanned));
    for (const auto &point : serial.points) {
        EXPECT_TRUE(point.metrics.cacheRecorded) << point.key;
    }
}

/**
 * The naive 3C reference for one capacity: a fully associative LRU
 * list of @p capacity lines, probed over the whole block before any
 * line is touched (the CACHE recorder's shadow-cache rule).
 */
class ShadowList
{
  public:
    explicit ShadowList(std::uint32_t capacity) : capacity_(capacity) {}

    /** Whether every line of [first, last] is resident, then touch. */
    bool
    access(std::uint32_t first, std::uint32_t last)
    {
        bool all = true;
        for (std::uint32_t line = first; line <= last; ++line)
            all &= std::find(lines_.begin(), lines_.end(), line) !=
                   lines_.end();
        for (std::uint32_t line = first; line <= last; ++line) {
            lines_.remove(line);
            lines_.push_front(line);
            if (lines_.size() > capacity_)
                lines_.pop_back();
        }
        return all;
    }

    /** The least recent resident line when full: the one that sits
     *  exactly on this capacity's boundary. */
    std::optional<std::uint32_t>
    boundary() const
    {
        if (lines_.size() < capacity_)
            return std::nullopt;
        return lines_.back();
    }

  private:
    std::uint32_t capacity_;
    std::list<std::uint32_t> lines_;  ///< most recent first
};

TEST(SweepFactored, LruStackZonesMatchShadowLists)
{
    struct Case
    {
        std::vector<std::uint32_t> capacities;
        std::uint32_t maxSpan;  ///< lines per block, at most
        std::uint32_t universe;  ///< distinct line ids
    };
    const Case cases[] = {
        {{1}, 1, 6},
        {{1}, 4, 8},            // blocks wider than the capacity
        {{9, 300}, 3, 400},     // 3 x 3 and 100 x 3
        {{4, 4, 8, 2, 8}, 3, 24},  // duplicates, any order
        {{2, 5, 3}, 7, 16},     // blocks wider than every zone
        {{64, 128, 256, 512, 128, 256}, 4, 700},  // the CI grid
    };
    for (std::uint64_t c = 0; c < std::size(cases); ++c) {
        const Case &test = cases[c];
        SCOPED_TRACE("case " + std::to_string(c));
        support::Rng rng(c * 7919 + 17);
        fetch::LruStack stack(test.capacities);
        std::vector<ShadowList> shadows;
        std::vector<std::uint32_t> zones;
        for (std::uint32_t capacity : test.capacities) {
            shadows.emplace_back(capacity);
            zones.push_back(stack.zoneOf(capacity));
        }
        std::set<std::uint32_t> touched;
        std::uint32_t first = 0, last = 0;
        for (int step = 0; step < 6000; ++step) {
            const std::uint64_t pick = rng.below(8);
            const std::optional<std::uint32_t> edge =
                shadows[rng.below(shadows.size())].boundary();
            if (pick == 0) {
                // Re-touch the previous block: its last line is the
                // head of the stack.
            } else if (pick == 1) {
                first = last;  // the head alone
            } else if (pick == 2 && edge) {
                first = last = *edge;  // the line on a boundary
            } else {
                first = std::uint32_t(rng.below(test.universe));
                last = first +
                       std::uint32_t(rng.below(test.maxSpan));
            }
            bool first_touch = false;
            for (std::uint32_t line = first; line <= last; ++line)
                first_touch |= touched.insert(line).second;
            const std::uint32_t verdict = stack.access(first, last);
            for (std::size_t g = 0; g < shadows.size(); ++g) {
                const bool resident = shadows[g].access(first, last);
                const fetch::MissClass want = first_touch
                    ? fetch::MissClass::kCompulsory
                    : resident ? fetch::MissClass::kConflict
                               : fetch::MissClass::kCapacity;
                ASSERT_EQ(fetch::classifyMiss(verdict, zones[g]), want)
                    << "step " << step << " lines [" << first << ", "
                    << last << "] capacity " << test.capacities[g];
            }
        }
    }
}

TEST(SweepFactored, FoldCostSumsPerFetchCost)
{
    // foldCost() must equal the per-fetch cycle model summed fetch by
    // fetch for any penalties — the built-in profiles alone cannot
    // tell every term apart (each has mispredictRefill equal to
    // compressedDecodeStage).
    support::Rng rng(2024);
    for (int round = 0; round < 100; ++round) {
        fetch::CyclePenalties p;
        p.mispredictRefill = unsigned(rng.below(10));
        p.mispredictMissBase = unsigned(rng.below(10));
        p.tailoredMissExtra = unsigned(rng.below(10));
        p.compressedMissExtra = unsigned(rng.below(10));
        p.compressedDecodeStage = unsigned(rng.below(10));
        p.atbMissPenalty = unsigned(rng.below(10));
        for (auto scheme :
             {fetch::SchemeClass::kBase, fetch::SchemeClass::kTailored,
              fetch::SchemeClass::kCompressed}) {
            fetch::FoldCounts n;
            fetch::StallBreakdown want;
            std::uint64_t want_saved = 0;
            for (int f = 0; f < 64; ++f) {
                fetch::FetchEvent e;
                e.predictionCorrect = rng.chance(0.5);
                e.l0Hit = scheme == fetch::SchemeClass::kCompressed &&
                          rng.chance(0.3);
                e.l1Hit = e.l0Hit || rng.chance(0.5);
                const bool atb_hit = rng.chance(0.5);
                const auto mops = std::uint32_t(rng.range(1, 8));
                const auto ops = mops + std::uint32_t(rng.below(8));
                const auto lines = std::uint32_t(rng.range(1, 4));

                const fetch::StallBreakdown c =
                    fetch::stallBreakdown(scheme, e, mops, ops, lines, p);
                want.mispredict += c.mispredict;
                want.l1Refill += c.l1Refill;
                want.decodeStage += c.decodeStage;
                want.atbMiss += atb_hit ? 0 : p.atbMissPenalty;
                want_saved += fetch::l0BypassSavings(scheme, e, p);

                n.mops += mops;
                n.atbMisses += atb_hit ? 0 : 1;
                if (!e.l1Hit) {
                    ++n.l1Misses;
                    n.missRepair += lines - 1;
                }
                if (!e.predictionCorrect) {
                    if (e.l0Hit)
                        ++n.mispredictL0;
                    else if (e.l1Hit)
                        ++n.mispredictServed;
                    else
                        ++n.mispredictMissed;
                }
            }
            const fetch::FoldedCost got = fetch::foldCost(scheme, n, p);
            SCOPED_TRACE(fetch::schemeClassName(scheme));
            EXPECT_EQ(got.causes.mispredict, want.mispredict);
            EXPECT_EQ(got.causes.l1Refill, want.l1Refill);
            EXPECT_EQ(got.causes.decodeStage, want.decodeStage);
            EXPECT_EQ(got.causes.atbMiss, want.atbMiss);
            EXPECT_EQ(got.l0Saved, want_saved);
        }
    }
}

} // namespace
