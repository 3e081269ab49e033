/**
 * @file
 * Dynamic program-behavior observability for the fetch simulator:
 * *which* static blocks, branch sites and execution phases dominate
 * the dynamic trace — the hotness profile a profile-guided selective
 * compression pass (keep hot blocks uncompressed, compress cold ones,
 * per Ozturk et al., PAPERS.md) starts from.
 *
 * A HotStatsRecorder rides along one simulateFetch() run as one of
 * its FetchObservers (fetch_observer.hh) and derives, purely from
 * the per-fetch observation, with every count attributed to the
 * fetch's head block (the block itself in plain fetch; the unit head
 * under a fetch-unit partition, where "blocks_simulated" counts unit
 * traversals):
 *
 *  - Per-static-block execution counts plus cycle and stall
 *    attribution. Tiling invariants, TEPIC_ASSERTed in finish() and
 *    re-derived externally by tools/tepic_reports.py:
 *
 *        Σ per-block fetched == blocks_simulated (== fetches)
 *        Σ per-block cycles  == cycles
 *        Σ per-block stall   == stall_cycles
 *
 *  - Per-branch-site predictor accuracy: the *site* of a prediction
 *    is the block whose follower the ATB guessed (predictNext), so
 *    taken / not-taken / mispredict are counted where the prediction
 *    was *made*, and the mispredict repair stall charged one fetch
 *    later is attributed back to that site (a unit's side exit
 *    counts as a mispredict of its head). The per-site stalls tile
 *    the existing mispredict stall counter exactly:
 *
 *        Σ per-site mispredict stall == mispredictStallCycles
 *        Σ per-site (taken + not-taken) == blocks_simulated
 *
 *    The last prediction of a run is made but never consumed; it is
 *    recorded per-site and surfaced as unconsumedMispredicts (0/1 per
 *    run, additive under merge) so the identity against the
 *    architectural predictionsWrong counter stays exact:
 *
 *        Σ per-site mispredicts == predictionsWrong
 *                                  + unconsumedMispredicts
 *
 *  - An epoch-indexed phase profile: phaseEpochs x static-blocks
 *    fetch counts, the epoch derived from the fetch's *index* in the
 *    trace (never wall clock), so every matrix is bit-identical for
 *    any --jobs value — same contract as the cache heatmaps. Column
 *    sums reproduce the per-block fetch counts (asserted).
 *
 * The report layer condenses the full vectors into a top-K view with
 * an exact "rest" residual (top + rest re-tiles every total), a
 * monotone hot/cold coverage curve (cumulative fetches of the k
 * hottest blocks), and per-function rollups via the compiler's
 * blockSource map (attached by core::runFetch — the recorder itself
 * has no compiler dependency).
 *
 * Determinism contract: everything a recorder produces is a pure
 * function of (trace, config); the whole HOT report is exact-gated
 * "structure". Recording is architecturally invisible (FetchStats
 * with and without recording are identical, asserted by tests) and
 * the recorder folds to no-op stubs under -DTEPIC_ENABLE_TRACING=OFF
 * — the disabled hot loop pays one branch per fetch.
 *
 * Session layer (hotstats::) mirrors fetch::cachestats: benches and
 * tepicc --hot-report= start a session, runFetch() records each
 * simulation under its workload label, and reportJson() renders
 * schema "tepic-hot-v1". The session store is compiled
 * unconditionally so disabled builds still write valid (empty)
 * reports.
 */

#ifndef TEPIC_FETCH_HOT_STATS_HH
#define TEPIC_FETCH_HOT_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fetch/cycle_model.hh"
#include "fetch/fetch_observer.hh"
#include "support/trace.hh"

#ifndef TEPIC_HOTSTATS_ENABLED
#define TEPIC_HOTSTATS_ENABLED TEPIC_TRACING_ENABLED
#endif

namespace tepic::fetch {

/** How (and how much of) the dynamic behavior to record. */
struct HotStatsConfig
{
    bool enabled = false;
    /** Time resolution of the phase (epochs x blocks) profile. */
    unsigned phaseEpochs = 16;
    /** Blocks/sites listed individually in the report's top-K view
     *  (everything else folds into an exact "rest" residual). */
    unsigned topBlocks = 32;
};

/**
 * Everything one recorder accumulated. Plain data, compiled
 * unconditionally (disabled builds produce recorded == false), and
 * mergeable across simulations of the same program shape.
 */
struct HotStats
{
    bool recorded = false;

    // Shape the run used (merge requires equality).
    std::uint32_t staticBlocks = 0;
    unsigned phaseEpochs = 0;
    unsigned topBlocks = 0;

    /** Fetches seen (== FetchStats::fetches of the simulation). */
    std::uint64_t blocksSimulated = 0;
    std::uint64_t cycles = 0;
    std::uint64_t stallCycles = 0;

    // Branch-site totals. taken + notTaken == blocksSimulated (every
    // fetch makes exactly one prediction and trains once).
    std::uint64_t taken = 0;
    std::uint64_t notTaken = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t mispredictStallCycles = 0;
    /** Wrong final predictions never consumed by a following event
     *  (0/1 per run; sums under merge). Bridges Σ site mispredicts
     *  to the architectural predictionsWrong counter exactly. */
    std::uint64_t unconsumedMispredicts = 0;

    // Per-static-block attribution (indexed by global block id).
    std::vector<std::uint64_t> blockFetches;
    std::vector<std::uint64_t> blockCycles;
    std::vector<std::uint64_t> blockStalls;

    // Per-branch-site attribution (same index space).
    std::vector<std::uint64_t> siteTaken;
    std::vector<std::uint64_t> siteNotTaken;
    std::vector<std::uint64_t> siteMispredicts;
    std::vector<std::uint64_t> siteMispredictStall;

    /** Phase profile: phaseEpochs rows x staticBlocks columns,
     *  row-major fetch counts. Column sums == blockFetches. */
    std::vector<std::uint64_t> phaseFetches;

    // Function attribution (global block id -> function), attached by
    // core::runFetch from compiler::CompiledProgram::blockSource; the
    // report rolls the per-block vectors up through it. Empty when no
    // caller attached a mapping (direct simulateFetch users).
    std::vector<std::string> functionNames;
    std::vector<std::uint32_t> blockFunction;

    bool
    sameShape(const HotStats &other) const
    {
        return staticBlocks == other.staticBlocks &&
               phaseEpochs == other.phaseEpochs;
    }

    /** Predictions made (== blocksSimulated; one per fetch). */
    std::uint64_t predictions() const { return taken + notTaken; }

    double
    mispredictRate() const
    {
        const std::uint64_t total = predictions();
        return total ? double(mispredicts) / double(total) : 0.0;
    }

    /** Static blocks with at least one dynamic fetch. */
    std::uint64_t executedBlocks() const;

    /** All block ids, hottest first (fetches desc, id asc) — the
     *  deterministic order behind the top-K view, the coverage curve
     *  and the phase-matrix columns. */
    std::vector<std::uint32_t> hotOrder() const;

    /** Dynamic fetches covered by the k hottest blocks (monotone in
     *  k by construction; k == staticBlocks covers everything). */
    std::uint64_t topCoverage(std::size_t k) const;

    /**
     * Fold @p other in (elementwise sums). An unrecorded *this
     * adopts @p other; otherwise the shapes must match (asserted) —
     * the session layer keys mismatching shapes apart instead of
     * merging them.
     */
    void merge(const HotStats &other);

    /** TEPIC_ASSERT every tiling invariant (no-op if !recorded). */
    void assertTiling() const;
};

#if TEPIC_HOTSTATS_ENABLED

/** One simulation's recording hooks; see the file comment. */
class HotStatsRecorder final : public FetchObserver
{
  public:
    HotStatsRecorder(std::uint32_t staticBlocks,
                     std::uint64_t expectedEvents,
                     const HotStatsConfig &options);

    /**
     * One completed fetch: its cycle and stall attribution to the
     * head block — the mispredict-repair component charged back to
     * the *site* that made the wrong prediction (the previous fetch's
     * head) — and the prediction it made for its follower.
     */
    void onFetch(const FetchObservation &fetch) override;

    /** Seal the record: derived fields + tiling asserts. */
    HotStats finish();

  private:
    static constexpr std::uint32_t kNoSite = 0xffffffffu;

    HotStatsConfig options_;
    HotStats stats_;
    std::uint64_t expectedEvents_ = 0;
    /** Site of the most recent prediction (mispredict stall lands
     *  one fetch after the wrong prediction was made). */
    std::uint32_t lastSite_ = kNoSite;
    bool lastPredictionWrong_ = false;
};

#else // !TEPIC_HOTSTATS_ENABLED — the recorder folds away.

class HotStatsRecorder final : public FetchObserver
{
  public:
    HotStatsRecorder(std::uint32_t, std::uint64_t,
                     const HotStatsConfig &)
    {
    }

    void onFetch(const FetchObservation &) override {}

    HotStats finish() { return HotStats{}; }
};

#endif // TEPIC_HOTSTATS_ENABLED

/**
 * Session-scoped HOT-report store, mirroring fetch::cachestats: one
 * relaxed atomic until startSession(). core::runFetch() records each
 * simulation under its workload label; shape-mismatched records for
 * the same (workload, scheme) are keyed apart under
 * "<workload>@B<staticBlocks>xE<phaseEpochs>" so merge() never
 * crosses programs. Compiled unconditionally: disabled builds write
 * valid empty reports.
 */
namespace hotstats {

/** Runtime switch; one relaxed atomic load. */
bool enabled();

/** Reset the store and enable recording. */
void startSession();

/** Disable recording; recorded data stays until the next start. */
void endSession();

/** Merge one simulation's record under (@p workload, @p scheme). */
void record(const std::string &workload, SchemeClass scheme,
            const HotStats &stats);

/**
 * Render schema "tepic-hot-v1": {"schema", "name", "structure"}.
 * Everything under "structure" is exact-gated across --jobs (the
 * recorder is a pure function of trace + config).
 */
std::string reportJson(const std::string &name);

/** reportJson() to a file; warns (returns false) on I/O failure. */
bool writeReport(const std::string &path, const std::string &name);

/** Drop all recorded state and disable (tests only). */
void resetForTest();

} // namespace hotstats

} // namespace tepic::fetch

#endif // TEPIC_FETCH_HOT_STATS_HH
