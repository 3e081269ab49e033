/**
 * @file
 * Dynamic program-behavior observability for the fetch simulator:
 * *which* static blocks, branch sites and execution phases dominate
 * the dynamic trace — the hotness profile a profile-guided selective
 * compression pass (keep hot blocks uncompressed, compress cold ones,
 * per Ozturk et al., PAPERS.md) starts from.
 *
 * A HotStatsRecorder rides along one simulateFetch() run as the
 * kernel's one per-fetch hook and derives, purely from the per-fetch
 * FetchObservation, with every count attributed to the fetch's head
 * block (the block itself in plain fetch; the unit head under a
 * fetch-unit partition, where "blocks_simulated" counts unit
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
 *  - An epoch-indexed phase profile: kPhaseEpochs x static-blocks
 *    fetch counts, the epoch derived from the fetch's *index* in the
 *    trace (never wall clock) by the same clock as the cache
 *    heatmaps (epoch_clock.hh), so every matrix is bit-identical for
 *    any --jobs value. Column sums reproduce the per-block fetch
 *    counts (asserted).
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
 * with and without recording are identical, asserted by tests).
 *
 * Session layer: hotstats is the report_store.hh template over
 * HotStats, run exactly like cachestats; reportJson() renders schema
 * "tepic-hot-v1".
 */

#ifndef TEPIC_FETCH_HOT_STATS_HH
#define TEPIC_FETCH_HOT_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fetch/cycle_model.hh"
#include "fetch/epoch_clock.hh"
#include "fetch/report_store.hh"
#include "support/keys.hh"

// Read only by bench/perf/perf.cc (kRecorders); the recorder compiles
// in every build. Goes when that harness stops reading it.
#define TEPIC_HOTSTATS_ENABLED 1

namespace tepic::fetch {

/**
 * One completed fetch as the hot recorder sees it: where it sits in
 * the trace, what the cycle model charged and the prediction made for
 * the follower. simulateFetch() hands every completed fetch — one
 * fetch-unit traversal; one basic block in plain fetch — to the
 * recorder exactly once, by a direct call made after the fetch's
 * cycle accounting and its next-fetch prediction are known. This is
 * the paper-facing per-access granularity (cf. the access-pattern
 * traces of Ozturk et al.) that the aggregate FetchStats hide.
 */
struct FetchObservation
{
    std::uint64_t index = 0;         ///< trace position of the head block
    std::uint32_t block = 0;         ///< head block of the fetch
    std::uint32_t cycles = 0;        ///< total charged, incl. ATB stall
    std::uint32_t stallCycles = 0;   ///< cycles beyond the n_mops stream
    /** The mispredict-repair part of stallCycles (charged at the
     *  fetch after the wrong prediction). */
    std::uint32_t mispredictStall = 0;
    bool branchTaken = false;        ///< direction the fetch left by
    /** Whether the prediction made at the end of this fetch named
     *  the follower (false on a side exit: nothing was predicted). */
    bool nextPredictionCorrect = true;
};

/**
 * Everything one recorder accumulated: plain data, mergeable across
 * simulations of the same program shape.
 */
struct HotStats
{
    bool recorded = false;

    // Shape the run used (merge requires equality).
    std::uint32_t staticBlocks = 0;

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

    /** Phase profile: kPhaseEpochs rows x staticBlocks columns,
     *  row-major fetch counts. Column sums == blockFetches. */
    std::vector<std::uint64_t> phaseFetches;

    // Function attribution (global block id -> function), attached by
    // core::runFetch from compiler::CompiledProgram::blockSource; the
    // report rolls the per-block vectors up through it. Empty when no
    // caller attached a mapping (direct simulateFetch users).
    std::vector<std::string> functionNames;
    std::vector<std::uint32_t> blockFunction;

    /** Time resolution of the phase (epochs x blocks) profile. */
    static constexpr unsigned kPhaseEpochs = 16;
    /** Blocks/sites listed individually in the report's top-K view
     *  (everything else folds into an exact "rest" residual). */
    static constexpr unsigned kTopBlocks = 32;
    static constexpr const char *kReportSchema = "tepic-hot-v1";

    /** Same program shape: the records may merge. */
    bool
    sameShape(const HotStats &other) const
    {
        return staticBlocks == other.staticBlocks;
    }

    /** The store's split key, "@B<staticBlocks>xE<kPhaseEpochs>". */
    std::string
    shapeKey() const
    {
        return support::shapeSuffix({{"B", staticBlocks},
                                     {"E", kPhaseEpochs}});
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

/** One simulation's recording hooks; see the file comment. */
class HotStatsRecorder
{
  public:
    HotStatsRecorder(std::uint32_t staticBlocks,
                     std::uint64_t expectedEvents);

    /**
     * One completed fetch: its cycle and stall attribution to the
     * head block — the mispredict-repair component charged back to
     * the *site* that made the wrong prediction (the previous fetch's
     * head) — and the prediction it made for its follower.
     */
    void onFetch(const FetchObservation &fetch);

    /** Seal the record: derived fields + tiling asserts. */
    HotStats finish();

  private:
    static constexpr std::uint32_t kNoSite = 0xffffffffu;

    HotStats stats_;
    EpochClock clock_;
    /** Site of the most recent prediction (mispredict stall lands
     *  one fetch after the wrong prediction was made). */
    std::uint32_t lastSite_ = kNoSite;
    bool lastPredictionWrong_ = false;
};

/** One merged record as a HOT-report scheme object. */
void writeScheme(support::JsonWriter &json, const HotStats &stats);

/** The session-scoped HOT-report store (report_store.hh). */
using hotstats = ReportStore<HotStats>;

} // namespace tepic::fetch

#endif // TEPIC_FETCH_HOT_STATS_HH
