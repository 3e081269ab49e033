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
 * capacity x ATB entries x predictor x cycle-penalty profile), build
 * every workload once through one memoized ArtifactEngine, evaluate
 * every (workload, configuration) point, and emit schema
 * "tepic-sweep-v1":
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
 * Factored evaluation (fetch/fetch_stages.hh). A point is not one
 * simulateFetch run: the kernel's control stage (ATB + predictor)
 * depends only on (trace, ATB entries, predictor), its memory stage
 * (L0 + L1) only on (scheme image, sets, ways, line bytes, L0 ops),
 * and its cost stage is a function of their per-fetch bits. So the
 * sweep simulates each distinct stream once — on the CI grid, 6
 * control streams and 8 L1 access streams per workload, each running
 * its 6 geometries in lockstep, instead of 288 full runs — in three
 * phases:
 *
 *  1. control streams, one pool task each, into packed bit vectors
 *     (ATB miss, mispredict) over the ATT of any swept scheme (the
 *     streams are scheme-independent, a tested fact);
 *  2. L1 access streams, one pool task per (workload, scheme, line
 *     bytes, L0 ops): the L0 buffer runs once, and one BankedCache
 *     per (sets, ways) of the group walks the trace in lockstep
 *     behind it, into one shared L0-hit vector and one L1-miss vector
 *     per geometry. One fetch::LruStack over line ids classifies
 *     every geometry's 3C misses in the same pass. Each task then
 *     folds every configuration of each geometry (control stream x
 *     penalty profile) into that point's slot and drops its bit
 *     vectors;
 *  3. the fold: fetch::foldCost over popcounts of ANDed bit vectors
 *     and per-stream sums, plus one walk over the ATB-miss and
 *     L1-miss bits in fetch order that replays the folded bus bursts
 *     (upload before fill within a fetch).
 *
 * Every point equals simulateFetch under SweepConfig::fetchConfig()
 * with recordCacheStats set, field for field (property-tested on
 * random programs and grids).
 *
 * Dominance (support/sweep.hh): a configuration dominates another
 * when it is no worse on all four objectives — total size bits (min),
 * aggregate ipc_e6 (max), decoder transistors (min), bus bit flips
 * (min) — and strictly better on at least one. The front is reported
 * in dominance order (oriented objective tuple ascending, key as the
 * tie-break) and is invariant under point evaluation order.
 *
 * Determinism notes: every stream task writes only its own slots
 * (ThreadPool::parallelFor, jobs == 1 runs strictly serially on the
 * caller); streams share nothing but read-only artefacts — no
 * decoded-block cache is attached (the sim's architectural numbers
 * never depend on decoded operations); aggregation and front
 * construction happen on the calling thread in grid order.
 * Configurations are normalized before expansion (the L0 capacity
 * collapses to 0 for the schemes that have no L0 buffer) and
 * deduplicated, so no two records alias the same hardware.
 */

#ifndef TEPIC_CORE_SWEEP_HH
#define TEPIC_CORE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "fetch/att.hh"
#include "fetch/cycle_model.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/predictor.hh"
#include "sim/emulator.hh"
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

    /**
     * The fetch::FetchConfig this point stands for: simulateFetch
     * under it reproduces the point's metrics exactly.
     */
    fetch::FetchConfig fetchConfig() const;
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
    // 3C split (cache_stats.hh); recorded == false without record3c.
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
    /**
     * Record the 3C miss split: one LRU stack per L1 access stream
     * (8 per CI workload) classifies the misses of all its
     * geometries, shared by every point of each geometry.
     */
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
 * One workload's control stream (see the file comment): bit f of
 * each vector describes the f-th fetch of the trace (the identity
 * partition: one block per fetch).
 */
struct ControlStream
{
    std::vector<std::uint64_t> atbMiss;     ///< the ATB missed
    std::vector<std::uint64_t> mispredict;  ///< the fetch was not the
                                            ///< predicted follower

    bool operator==(const ControlStream &) const = default;
};

/**
 * Run the control stage over @p trace with the ATB keyed by @p att:
 * @p atb_entries entries and @p predictor's direction predictor.
 */
ControlStream recordControlStream(const fetch::Att &att,
                                  const sim::BlockTrace &trace,
                                  unsigned atb_entries,
                                  const fetch::PredictorConfig &predictor);

/**
 * The factored evaluation behind runSweep, over built artefacts:
 * each entry of @p workloads must hold kTrace plus the images of the
 * schemes @p configs name. Returns the metrics of every (workload,
 * config) pair at [w * configs.size() + c]; bit-identical for any
 * @p jobs (0 = hardware concurrency, 1 = serial on the caller).
 */
std::vector<PointMetrics>
evaluatePoints(const std::vector<const Artifacts *> &workloads,
               const std::vector<SweepConfig> &configs, bool record_3c,
               unsigned jobs);

/**
 * The exact-gated "structure" object alone, as a standalone JSON
 * document — the byte-compare witness for the determinism tests.
 */
std::string structureJson(const SweepResult &result);

/** Render schema "tepic-sweep-v1". */
std::string reportJson(const SweepResult &result,
                       const std::string &name);

/**
 * Export the deterministic sweep.* counters (points, configs,
 * front_size, workloads); the run's wall time and point rate live in
 * the SWEEP report's timing section.
 */
void exportMetricsTo(support::MetricsRegistry &metrics,
                     const SweepResult &result);

} // namespace tepic::core::sweep

#endif // TEPIC_CORE_SWEEP_HH
