/**
 * @file
 * Cache-behavior observability for the fetch simulator: the layer
 * that explains *which* misses compression eliminated, not just how
 * many (the paper's effective-capacity claim, §5; the methodology of
 * the classic 3C model and of reuse-distance profiling per Ozturk et
 * al., PAPERS.md).
 *
 * A CacheStatsRecorder rides along one simulateFetch() run as one of
 * its FetchObservers (fetch_observer.hh) — one call per completed
 * fetch — plus the L1's line-event hook, and covers all three fetch
 * paths:
 *
 *  - L1 (BankedCache): every block miss is classified as exactly one
 *    of compulsory / capacity / conflict. Compulsory = the block
 *    touches at least one never-before-seen line (first-touch
 *    tracking). Otherwise a fully-associative LRU *shadow cache* of
 *    the same total line capacity is probed: if the shadow holds the
 *    whole block the set-associative cache lost it to mapping
 *    restrictions (conflict); if even the fully-associative cache
 *    would have missed, the working set simply does not fit
 *    (capacity). Tiling invariant, TEPIC_ASSERTed in finish() and
 *    fuzz-tested like the stall taxonomy:
 *
 *        misses == compulsory + capacity + conflict
 *
 *    Per-line fill/hit/eviction events arrive through the
 *    CacheLineObserver interface (banked_cache.hh), which also
 *    carries the victim's use count so dead-on-fill lines (filled,
 *    never re-referenced, evicted) are counted exactly.
 *
 *  - Block stream: reuse distances (number of *distinct* blocks
 *    between consecutive accesses to the same block) via an
 *    Olken-style order-statistic structure — a Fenwick tree over
 *    access positions with periodic position compaction, O(log B)
 *    per access for B distinct blocks. Distances land in a log2
 *    histogram; first touches count as cold.
 *
 *  - L0 / ATB: bypasses and translation hits/misses are recorded so
 *    a CACHE report shows the traffic each level absorbed.
 *
 * Per-set occupancy is accumulated over time into epochs x sets
 * matrices (accesses / fills / evictions at line granularity) for
 * the tepic_reports.py heatmaps. The epoch of an event is derived from
 * its *index* in the trace, never from wall clock, so every matrix
 * is bit-identical for any --jobs value: line events arrive during a
 * fetch's L1 access, before its observation, so each observation
 * sets the epoch of the *next* fetch from the trace position that
 * fetch starts at.
 *
 * Determinism contract: everything a recorder produces is a pure
 * function of (trace, config) — the whole CACHE report is
 * exact-gated "structure", unlike prof/sched which carry wall-clock
 * sections. Recording is sampling-capable (reuseSampleEvery thins
 * the reuse-distance stream; the 3C state must see every access and
 * cannot be sampled) and the recorder folds to no-op stubs under
 * -DTEPIC_ENABLE_TRACING=OFF: the disabled hot loop pays one branch
 * per fetch, bounded by the fig14 time-band gate.
 *
 * Session layer (cachestats::) mirrors support::sched: benches and
 * tepicc --cache-report= start a session, runFetch() records each
 * simulation under its workload label, and reportJson() renders
 * schema "tepic-cache-v1". The session store is compiled
 * unconditionally so disabled builds still write valid (empty)
 * reports.
 */

#ifndef TEPIC_FETCH_CACHE_STATS_HH
#define TEPIC_FETCH_CACHE_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fetch/banked_cache.hh"
#include "fetch/cycle_model.hh"
#include "fetch/fetch_observer.hh"
#include "support/stats.hh"
#include "support/trace.hh"

#ifndef TEPIC_CACHESTATS_ENABLED
#define TEPIC_CACHESTATS_ENABLED TEPIC_TRACING_ENABLED
#endif

namespace tepic::fetch {

/** How (and how much of) the cache behavior to record. */
struct CacheStatsConfig
{
    bool enabled = false;
    /** Time resolution of the per-set heatmap matrices. */
    unsigned heatmapEpochs = 16;
    /**
     * Record every Nth fetch event into the reuse-distance stream
     * (1 = every event). Distances are measured within the sampled
     * substream — still deterministic, just coarser.
     */
    std::uint64_t reuseSampleEvery = 1;
};

/**
 * Everything one recorder accumulated. Plain data, compiled
 * unconditionally (disabled builds produce recorded == false), and
 * mergeable across simulations of the same cache geometry.
 */
struct CacheStats
{
    bool recorded = false;

    // Geometry the run used (merge requires equality).
    unsigned sets = 0;
    unsigned ways = 0;
    unsigned lineBytes = 0;
    unsigned heatmapEpochs = 0;

    /** Fetches seen (== FetchStats::fetches of the simulation). */
    std::uint64_t fetches = 0;
    /** Blocks served by the L0 buffer; the L1 never saw them. */
    std::uint64_t l0Bypasses = 0;
    std::uint64_t atbHits = 0;
    std::uint64_t atbMisses = 0;

    // L1 block-level outcomes. accesses == hits + misses and
    // fetches == accesses + l0Bypasses (asserted).
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    // The 3C split; tiles misses exactly (asserted).
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;

    // Line lifetime (line granularity, from the CacheLineObserver).
    std::uint64_t lineFills = 0;
    std::uint64_t lineEvictions = 0;
    std::uint64_t deadOnFill = 0;     ///< evicted with zero re-uses
    std::uint64_t residentAtEnd = 0;  ///< fills - evictions
    /** Re-references a line had when evicted (overflow at 64). */
    support::Histogram evictionUseHistogram =
        support::Histogram(kUseHistogramOverflow);

    // Reuse distances over the (sampled) block stream.
    std::uint64_t reuseSamples = 0;  ///< sampled events, incl. cold
    std::uint64_t reuseCold = 0;     ///< first touches
    std::uint64_t reuseMax = 0;
    /** Key k >= 1 covers distances [2^(k-1), 2^k); key 0 = dist 0. */
    support::Histogram reuseLog2Histogram;

    // Per-set line-event totals; accesses[s] == hits[s] + fills[s].
    std::vector<std::uint64_t> setAccesses;
    std::vector<std::uint64_t> setHits;
    std::vector<std::uint64_t> setFills;
    std::vector<std::uint64_t> setEvictions;
    std::vector<std::uint64_t> setDeadOnFill;

    // Heatmaps: heatmapEpochs rows x sets columns, row-major. Column
    // sums reproduce the per-set vectors above (asserted by
    // tepic_reports.py).
    std::vector<std::uint64_t> heatAccesses;
    std::vector<std::uint64_t> heatFills;
    std::vector<std::uint64_t> heatEvictions;

    static constexpr std::int64_t kUseHistogramOverflow = 64;

    bool
    sameGeometry(const CacheStats &other) const
    {
        return sets == other.sets && ways == other.ways &&
               lineBytes == other.lineBytes &&
               heatmapEpochs == other.heatmapEpochs;
    }

    double
    missRate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }

    double
    deadOnFillRate() const
    {
        return lineEvictions ? double(deadOnFill) /
                                   double(lineEvictions)
                             : 0.0;
    }

    /**
     * Fold @p other in (elementwise sums; histograms merge). An
     * unrecorded *this adopts @p other; otherwise the geometries
     * must match (asserted) — the session layer keys mismatching
     * geometries apart instead of merging them.
     */
    void merge(const CacheStats &other);

    /** TEPIC_ASSERT every tiling invariant (no-op if !recorded). */
    void assertTiling() const;
};

#if TEPIC_CACHESTATS_ENABLED

/**
 * Exact reuse distances in O(log B) per access: each live block
 * owns one marker at its most recent access position in a Fenwick
 * tree; the distance to the previous access is the number of
 * markers strictly after it. Positions are compacted (rank-order
 * renumbering) whenever the position space fills, bounding memory
 * by the distinct-block count rather than the trace length.
 */
class ReuseDistanceTracker
{
  public:
    static constexpr std::uint64_t kCold = ~std::uint64_t(0);

    explicit ReuseDistanceTracker(std::size_t expectedBlocks);

    /** Distinct blocks since the last access of @p block (kCold on
     *  first touch), then mark this access. */
    std::uint64_t access(std::uint32_t block);

    std::uint64_t compactions() const { return compactions_; }

  private:
    std::vector<std::uint32_t> fenwick_;  ///< 1-based, size cap_+1
    std::vector<std::uint32_t> lastPos_;  ///< block -> pos+1, 0=never
    std::uint32_t cap_ = 0;
    std::uint32_t next_ = 0;   ///< next unused position
    std::uint32_t live_ = 0;   ///< markers in the tree
    std::uint64_t compactions_ = 0;

    void add(std::uint32_t index, std::int32_t delta);
    std::uint64_t prefix(std::uint32_t index) const;
    void compact();
};

/** One simulation's recording hooks; see the file comment. */
class CacheStatsRecorder final : public CacheLineObserver,
                                 public FetchObserver
{
  public:
    CacheStatsRecorder(const CacheConfig &cache,
                       std::uint64_t expectedEvents,
                       const CacheStatsConfig &options);

    /**
     * One completed fetch: its block-stream reuse sample, ATB outcome
     * and either the L0 bypass or the 3C classification of its L1
     * access (the shadow is probed from recorder-private state, so
     * running after the real access changes nothing).
     */
    void onFetch(const FetchObservation &fetch) override;

    // CacheLineObserver (line granularity, from BankedCache).
    void onLineHit(std::uint64_t lineId, std::uint32_t set) override;
    void onLineFill(std::uint64_t lineId, std::uint32_t set) override;
    void onLineEvict(std::uint64_t lineId, std::uint32_t set,
                     std::uint64_t uses) override;

    /** Seal the record: derived fields + tiling asserts. */
    CacheStats finish();

  private:
    CacheStatsConfig options_;
    CacheStats stats_;
    std::uint64_t expectedEvents_ = 0;
    unsigned epoch_ = 0;  ///< of the fetch now accessing the L1

    // First-touch tracking + fully-associative LRU shadow over line
    // ids, both as dense grow-on-demand arrays (line ids are bounded
    // by image bytes / lineBytes).
    std::vector<bool> touched_;
    struct ShadowNode
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        bool resident = false;
    };
    static constexpr std::uint32_t kNil = 0xffffffffu;
    std::vector<ShadowNode> shadow_;
    std::uint32_t shadowHead_ = kNil;
    std::uint32_t shadowTail_ = kNil;
    std::uint32_t shadowResident_ = 0;
    std::uint32_t shadowCapacity_ = 0;

    ReuseDistanceTracker reuse_;

    void classifyL1(std::uint32_t addr, std::uint32_t size, bool hit);
    void ensureLine(std::uint64_t lineId);
    bool shadowResident(std::uint64_t lineId) const;
    void shadowTouch(std::uint64_t lineId);
    void shadowUnlink(std::uint32_t line);
    void shadowPushFront(std::uint32_t line);
};

#else // !TEPIC_CACHESTATS_ENABLED — the recorder folds away.

class ReuseDistanceTracker
{
  public:
    static constexpr std::uint64_t kCold = ~std::uint64_t(0);
    explicit ReuseDistanceTracker(std::size_t) {}
    std::uint64_t access(std::uint32_t) { return kCold; }
    std::uint64_t compactions() const { return 0; }
};

class CacheStatsRecorder final : public CacheLineObserver,
                                 public FetchObserver
{
  public:
    CacheStatsRecorder(const CacheConfig &, std::uint64_t,
                       const CacheStatsConfig &)
    {
    }

    void onFetch(const FetchObservation &) override {}
    void onLineHit(std::uint64_t, std::uint32_t) override {}
    void onLineFill(std::uint64_t, std::uint32_t) override {}
    void onLineEvict(std::uint64_t, std::uint32_t,
                     std::uint64_t) override
    {
    }

    CacheStats finish() { return CacheStats{}; }
};

#endif // TEPIC_CACHESTATS_ENABLED

/**
 * Session-scoped CACHE-report store, mirroring support::sched: one
 * relaxed atomic until startSession(). core::runFetch() records each
 * simulation under its workload label; geometry-mismatched records
 * for the same (workload, scheme) are keyed apart under
 * "<workload>@<sets>x<ways>x<lineBytes>" so merge() never crosses
 * geometries. Compiled unconditionally: disabled builds write valid
 * empty reports.
 */
namespace cachestats {

/** Runtime switch; one relaxed atomic load. */
bool enabled();

/** Reset the store and enable recording. */
void startSession();

/** Disable recording; recorded data stays until the next start. */
void endSession();

/** Merge one simulation's record under (@p workload, @p scheme). */
void record(const std::string &workload, SchemeClass scheme,
            const CacheStats &stats);

/**
 * Render schema "tepic-cache-v1": {"schema", "name", "structure"}.
 * Everything under "structure" is exact-gated across --jobs (the
 * recorder is a pure function of trace + config).
 */
std::string reportJson(const std::string &name);

/** reportJson() to a file; warns (returns false) on I/O failure. */
bool writeReport(const std::string &path, const std::string &name);

/** Drop all recorded state and disable (tests only). */
void resetForTest();

} // namespace cachestats

} // namespace tepic::fetch

#endif // TEPIC_FETCH_CACHE_STATS_HH
