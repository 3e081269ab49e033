/**
 * @file
 * The design-space sweep driver: evaluate a configuration grid of
 * fetch organisations over the workload suite and attribute the
 * Pareto front of the size / IPC / decoder-cost / bus-power space.
 *
 * The paper's §7 argument — compression ratio is not IPC, decoder
 * complexity is not free, and the right scheme depends on which axis
 * the system is starved on — is a design-space claim. This driver
 * makes it observable: expand a grid (schemes x cache geometry x L0
 * capacity x ATB entries x predictor x cycle-penalty profile), run
 * fetch::simulateFetch for every (workload, configuration) point over
 * one memoized ArtifactEngine, and emit schema "tepic-sweep-v1":
 *
 *  - structure: objectives, the grid, one record per point (sizes,
 *    cycles, exact stall tiling, decoder transistors, bus bit flips,
 *    3C miss split), per-configuration aggregates across workloads,
 *    and the Pareto front over the aggregates. Exact-gated: integer
 *    arithmetic only (IPC is carried as ipc_e6 =
 *    ops_delivered * 1e6 / cycles, integer division), so the section
 *    is byte-identical for any --jobs value — a tested guarantee, the
 *    same contract as the artifact engine and the size report.
 *  - timing: wall-clock throughput (jobs, wall_ms, points_per_sec),
 *    band-gated only.
 *
 * Dominance (support/sweep.hh): a configuration dominates another
 * when it is no worse on all four objectives — total size bits (min),
 * aggregate ipc_e6 (max), decoder transistors (min), bus bit flips
 * (min) — and strictly better on at least one. The front is reported
 * in dominance order (oriented objective tuple ascending, key as the
 * tie-break) and is invariant under point evaluation order.
 *
 * Determinism notes: every point is evaluated into a pre-assigned
 * slot (ThreadPool::parallelFor, jobs == 1 runs strictly serially on
 * the caller); simulations share nothing — no decoded-block cache is
 * attached (the sim's architectural numbers never depend on decoded
 * operations, so skipping host decode is both faster and race-free);
 * aggregation and front construction happen on the calling thread in
 * grid order. Configurations are normalized before expansion (the L0
 * capacity collapses to 0 for the schemes that have no L0 buffer) and
 * deduplicated, so no two records alias the same hardware.
 */

#ifndef TEPIC_CORE_SWEEP_HH
#define TEPIC_CORE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "fetch/cycle_model.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/predictor.hh"
#include "support/sweep.hh"

namespace tepic::support {
class MetricsRegistry;
} // namespace tepic::support

namespace tepic::core::sweep {

/** A named CyclePenalties preset, sweepable as one grid dimension. */
struct PenaltyProfile
{
    std::string name;
    fetch::CyclePenalties penalties;
};

/** The built-in profiles: "paper", "slowmem", "deeppipe". */
const std::vector<PenaltyProfile> &penaltyProfiles();

/** Look up a built-in profile (fatal on an unknown name). */
const PenaltyProfile &penaltyProfileByName(const std::string &name);

/**
 * The sweepable dimensions. Workloads are suite names
 * (workloads/workload.hh); every other dimension crosses with every
 * other. Empty dimensions make the grid empty.
 */
struct SweepGrid
{
    std::vector<std::string> workloads = {"fir"};
    std::vector<fetch::SchemeClass> schemes = {
        fetch::SchemeClass::kBase,
        fetch::SchemeClass::kCompressed,
        fetch::SchemeClass::kTailored,
    };
    std::vector<unsigned> cacheSets = {256};
    std::vector<unsigned> cacheWays = {2};
    std::vector<unsigned> lineBytes = {32};
    std::vector<unsigned> l0CapacityOps = {32};
    std::vector<unsigned> atbEntries = {64};
    std::vector<fetch::PredictorKind> predictors = {
        fetch::PredictorKind::kBimodal};
    std::vector<std::string> penaltyProfiles = {"paper"};

    /** The paper's three organisations on one workload. */
    static SweepGrid paperPoint();

    /**
     * The reduced CI grid: 3 schemes x {64,128,256} sets x {1,2}
     * ways x {32,64}-byte lines x {16,32}-op L0 x {16,64}-entry ATB
     * x all three predictors on {fir, gcc} — 288 configurations
     * after normalization (the >= 200 floor the CI gate asserts).
     */
    static SweepGrid ci();
};

/**
 * One expanded grid point (everything but the workload). key() is the
 * stable spelling used for records, aggregates and the front:
 *
 *   <scheme>@S<sets>xW<ways>xL<line>/l0:<ops>/atb:<entries>
 *       /p:<predictor>/pen:<profile>
 *
 * The geometry part reuses support::shapeSuffix — the same vocabulary
 * the cache/hot session stores re-key mismatched shapes with.
 */
struct SweepConfig
{
    fetch::SchemeClass scheme = fetch::SchemeClass::kBase;
    unsigned sets = 256;
    unsigned ways = 2;
    unsigned lineBytes = 32;
    unsigned l0Ops = 32;  ///< 0 when the scheme has no L0 buffer
    unsigned atbEntries = 64;
    fetch::PredictorKind predictor = fetch::PredictorKind::kBimodal;
    std::string penaltyProfile = "paper";

    std::string key() const;

    /** The fetch::FetchConfig this point simulates. */
    fetch::FetchConfig fetchConfig(bool record_3c) const;
};

/**
 * Normalize + expand + dedup the non-workload dimensions of @p grid,
 * in row-major grid order (penalty profile fastest).
 */
std::vector<SweepConfig> expandConfigs(const SweepGrid &grid);

/** Integer metrics of one simulated (workload, config) point. */
struct PointMetrics
{
    std::uint64_t sizeBits = 0;  ///< image size under config.scheme
    std::uint64_t cycles = 0;
    std::uint64_t idealCycles = 0;
    std::uint64_t opsDelivered = 0;
    std::uint64_t blocksFetched = 0;
    // Exact stall tiling (fetch_sim.hh): the four causes sum to
    // stallCycles; l0Saved is a saving, outside the sum.
    std::uint64_t stallCycles = 0;
    std::uint64_t mispredictStall = 0;
    std::uint64_t refillStall = 0;
    std::uint64_t decodeStall = 0;
    std::uint64_t atbStall = 0;
    std::uint64_t l0SavedCycles = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t busBitFlips = 0;
    std::uint64_t busBeats = 0;
    std::uint64_t bytesTransferred = 0;
    std::uint64_t decoderTransistors = 0;
    // 3C split (cache_stats.hh); recorded == false in notrace builds.
    bool cacheRecorded = false;
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;

    /** Integer IPC, scaled by 1e6 (exact-gate friendly). */
    std::uint64_t
    ipcE6() const
    {
        return cycles ? opsDelivered * 1'000'000ull / cycles : 0;
    }
};

/** One record of the sweep: key is "<workload>/<config key>". */
struct PointRecord
{
    std::string key;
    std::string workload;
    SweepConfig config;
    PointMetrics metrics;
};

/**
 * Per-configuration sums across the swept workloads — the objective
 * space the Pareto front is computed over (per-workload fronts would
 * answer a different question; the aggregate answers "what should
 * this core look like for this suite?").
 */
struct AggregateRecord
{
    std::string key;  ///< the config key
    SweepConfig config;
    std::uint64_t workloadCount = 0;
    std::uint64_t sizeBits = 0;
    std::uint64_t cycles = 0;
    std::uint64_t idealCycles = 0;
    std::uint64_t opsDelivered = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t decoderTransistors = 0;
    std::uint64_t busBitFlips = 0;

    std::uint64_t
    ipcE6() const
    {
        return cycles ? opsDelivered * 1'000'000ull / cycles : 0;
    }
};

/** The four objective axes, in report order. */
const std::vector<support::sweep::Objective> &objectives();

/** @p record's position in objective space (for dominance checks). */
support::sweep::Point aggregatePoint(const AggregateRecord &record);

struct SweepOptions
{
    SweepGrid grid;
    /** Simulation fan-out: 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 1;
    /** Record the 3C miss split per point (costs simulation time). */
    bool record3c = true;
};

struct SweepResult
{
    SweepGrid grid;
    std::vector<SweepConfig> configs;     ///< grid expansion order
    std::vector<PointRecord> points;      ///< sorted by key
    std::vector<AggregateRecord> aggregates;  ///< sorted by key
    std::vector<std::size_t> front;  ///< aggregate indices, dominance
                                     ///< order
    unsigned jobs = 1;               ///< timing section only
    std::uint64_t wallMs = 0;        ///< timing section only
};

/**
 * Run the sweep: build each workload's artefacts once through
 * @p engine (kTrace plus exactly the images the swept schemes read),
 * then evaluate every (workload, configuration) point. The returned
 * structure content is bit-identical for any options.jobs.
 */
SweepResult runSweep(ArtifactEngine &engine,
                     const SweepOptions &options);

/**
 * The exact-gated "structure" object alone, as a standalone JSON
 * document — the byte-compare witness for the determinism tests.
 */
std::string structureJson(const SweepResult &result);

/** Render schema "tepic-sweep-v1". */
std::string reportJson(const SweepResult &result,
                       const std::string &name);

/**
 * Export deterministic sweep.* counters (points, configs,
 * front_size, workloads) plus the band-gated sweep.points_rate gauge
 * and sweep.run timing.
 */
void exportMetricsTo(support::MetricsRegistry &metrics,
                     const SweepResult &result);

} // namespace tepic::core::sweep

#endif // TEPIC_CORE_SWEEP_HH
