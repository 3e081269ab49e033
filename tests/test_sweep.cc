/**
 * @file
 * Design-space sweep tests: Pareto dominance on hand-traced fixtures,
 * grid expansion order, configuration normalization, and the driver's
 * determinism contract (the structure section is byte-identical for
 * any jobs value; the front is invariant under input order).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/sweep.hh"
#include "fetch/fetch_sim.hh"
#include "support/sweep.hh"
#include "workloads/workload.hh"

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

TEST(SweepDriver, PointMatchesDirectSimulation)
{
    core::ArtifactEngine engine(1);
    core::sweep::SweepOptions options;
    options.grid.workloads = {"fir"};
    options.grid.schemes = {fetch::SchemeClass::kBase};
    const auto result = core::sweep::runSweep(engine, options);
    ASSERT_EQ(result.points.size(), 1u);
    const auto &point = result.points[0];

    // Re-run the same point by hand: same image, same trace, same
    // FetchConfig — the sweep must be a plain fan-out of simulateFetch.
    const auto artifacts = engine.build(
        workloads::workloadByName("fir").source,
        core::ArtifactRequest{core::ArtifactKind::kTrace,
                              core::ArtifactKind::kBase});
    const fetch::FetchStats direct = fetch::simulateFetch(
        artifacts->baseImage(), artifacts->compiled.program,
        artifacts->trace(), point.config.fetchConfig(true));

    EXPECT_EQ(point.metrics.sizeBits, artifacts->baseImage().bitSize);
    EXPECT_EQ(point.metrics.cycles, direct.cycles);
    EXPECT_EQ(point.metrics.stallCycles, direct.stallCycles);
    EXPECT_EQ(point.metrics.busBitFlips, direct.busBitFlips);
    EXPECT_EQ(point.metrics.l1Misses, direct.l1Misses);
    EXPECT_EQ(point.metrics.decoderTransistors, 0u);  // base decodes
                                                      // for free
    // The exact stall tiling the validator re-derives.
    EXPECT_EQ(point.metrics.mispredictStall + point.metrics.refillStall
                  + point.metrics.decodeStall + point.metrics.atbStall,
              point.metrics.stallCycles);
    EXPECT_EQ(point.metrics.idealCycles + point.metrics.stallCycles,
              point.metrics.cycles);
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

} // namespace
