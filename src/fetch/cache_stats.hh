/**
 * @file
 * Cache-behavior observability for the fetch simulator: the layer
 * that explains *which* misses compression eliminated, not just how
 * many (the paper's effective-capacity claim, §5; the methodology of
 * the classic 3C model and of reuse-distance profiling per Ozturk et
 * al., PAPERS.md).
 *
 * The kernel drives no recorder; a record has two halves. A
 * CacheStatsRecorder, the L1 line observer of the one memory walk
 * (walkMemory(), fetch_sim.cc), keeps what only the real L0/L1 give:
 * per fetch the walk calls beginFetch() (heatmap epoch), then
 * onL0Bypass() or onL1Access(). A CacheStreamRecorder, on a second
 * reader of the walk's published stream, keeps the reuse distances
 * and the 3C split. The kernel joins both, merges them, copies in its
 * ATB totals and checks the L1/L0 counts against its own. Paths:
 *
 *  - L1 (BankedCache): every block miss is exactly one of compulsory,
 *    capacity or conflict, by a fetch::LruStack (lru_stack.hh): a
 *    fully associative LRU (Mattson et al.) of sets x ways lines over
 *    the L1 accesses. Compulsory = the block touches a never-seen
 *    line; else conflict if that LRU holds the whole block (the set
 *    mapping lost it), else capacity (the working set does not fit).
 *    assertTiling() checks misses == compulsory + capacity + conflict
 *    once the record is complete. Line fills, hits and evictions, with
 *    the victim's use count so dead-on-fill lines are exact, arrive
 *    through the CacheLineObserver interface (banked_cache.hh).
 *  - Block stream: exact reuse distances (ReuseDistanceTracker) in a
 *    log2 histogram; first touches count as cold.
 *  - L0 / ATB: bypasses (the walk's) and translation hits/misses (the
 *    kernel's totals), so a report shows what each level absorbed.
 *
 * Line events also fill epochs x sets matrices (accesses / fills /
 * evictions) for the tepic_reports.py heatmaps. An event's epoch comes
 * from its fetch's trace index (epoch_clock.hh), never wall clock, so
 * the whole record is a pure function of (trace, config): identical
 * for any --jobs, and exact-gated "structure" in the CACHE report.
 *
 * Session layer: cachestats is the report_store.hh template over
 * CacheStats. core::reports starts its session, runFetch() records
 * each simulation under its workload label, and reportJson() renders
 * schema "tepic-cache-v1".
 */

#ifndef TEPIC_FETCH_CACHE_STATS_HH
#define TEPIC_FETCH_CACHE_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fetch/banked_cache.hh"
#include "fetch/cycle_model.hh"
#include "fetch/epoch_clock.hh"
#include "fetch/lru_stack.hh"
#include "fetch/report_store.hh"
#include "support/keys.hh"
#include "support/stats.hh"

// Read only by bench/perf/perf.cc (kRecorders); the recorder compiles
// in every build. Goes when that harness stops reading it.
#define TEPIC_CACHESTATS_ENABLED 1

namespace tepic::fetch {

/**
 * Everything one recorder accumulated: plain data, mergeable across
 * simulations of the same cache geometry.
 */
struct CacheStats
{
    bool recorded = false;

    // Geometry the run used (merge requires equality).
    unsigned sets = 0;
    unsigned ways = 0;
    unsigned lineBytes = 0;

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

    // Reuse distances over the block stream: every fetch is one
    // sample, so fetches == reuseCold + reuseLog2Histogram.total().
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

    // Heatmaps: kHeatmapEpochs rows x sets columns, row-major. Column
    // sums reproduce the per-set vectors above (asserted by
    // tepic_reports.py).
    std::vector<std::uint64_t> heatAccesses;
    std::vector<std::uint64_t> heatFills;
    std::vector<std::uint64_t> heatEvictions;

    /** Time resolution of the per-set heatmap matrices. */
    static constexpr unsigned kHeatmapEpochs = 16;
    static constexpr std::int64_t kUseHistogramOverflow = 64;
    static constexpr const char *kReportSchema = "tepic-cache-v1";

    /** Same geometry: the records may merge. */
    bool
    sameShape(const CacheStats &other) const
    {
        return sets == other.sets && ways == other.ways &&
               lineBytes == other.lineBytes;
    }

    /** The store's split key, "@<sets>x<ways>x<lineBytes>". */
    std::string
    shapeKey() const
    {
        return support::shapeSuffix({{"", sets}, {"", ways},
                                     {"", lineBytes}});
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

/**
 * Exact reuse distances: each live block owns one marker at its most
 * recent access position; the distance to the previous access is the
 * number of markers strictly after it. Markers are one bit per
 * position in 64-bit words, counted through a Fenwick tree over the
 * words' popcounts (1/64 the positions), so an access costs
 * O(log(positions/64)) plus one masked popcount. Positions are
 * compacted (rank-order renumbering) whenever the position space
 * fills, bounding memory by the distinct-block count rather than the
 * trace length.
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
    std::vector<std::uint64_t> bits_;     ///< marker bits, cap_/64 words
    std::vector<std::uint32_t> fenwick_;  ///< 1-based word popcounts
    std::vector<std::uint32_t> lastPos_;  ///< block -> pos+1, 0=never
    std::uint32_t cap_ = 0;
    std::uint32_t next_ = 0;   ///< next unused position
    std::uint32_t live_ = 0;   ///< markers set
    std::uint64_t compactions_ = 0;

    void add(std::uint32_t word, std::uint32_t delta);
    std::uint64_t prefixWords(std::uint32_t words) const;
    void compact();
};

/** The memory walk's half of a record; see the file comment. */
class CacheStatsRecorder final : public CacheLineObserver
{
  public:
    CacheStatsRecorder(const CacheConfig &cache,
                       std::uint64_t expectedEvents);
    // row_ points into cells_: a copy would write the original's.
    CacheStatsRecorder(const CacheStatsRecorder &) = delete;
    CacheStatsRecorder &operator=(const CacheStatsRecorder &) = delete;

    /** A fetch starts at trace position @p index (in trace order,
     *  before its L1 access): the heatmap epoch of its line events. */
    void beginFetch(std::uint64_t index);

    /** The fetch was served by the L0 buffer; the L1 never saw it. */
    void onL0Bypass() { ++stats_.l0Bypasses; }

    /** The fetch's L1 access hit or missed. */
    void onL1Access(bool hit) { ++(hit ? stats_.hits : stats_.misses); }

    // CacheLineObserver (line granularity, from BankedCache).
    void onLineHit(std::uint64_t lineId, std::uint32_t set) override;
    void onLineFill(std::uint64_t lineId, std::uint32_t set) override;
    void onLineEvict(std::uint64_t lineId, std::uint32_t set,
                     std::uint64_t uses) override;

    /** Seal the walk's half: the derived fields. The caller adds the
     *  stream's half and the kernel's ATB totals, then asserts the
     *  tiling. */
    CacheStats finish();

  private:
    /** Line events of one (epoch, set); each event bumps one count
     *  (an eviction is dead or live by its use count). */
    struct LineCell
    {
        std::uint64_t hits = 0;
        std::uint64_t fills = 0;
        std::uint64_t liveEvictions = 0;
        std::uint64_t deadEvictions = 0;
    };

    CacheStats stats_;
    EpochClock clock_;
    /** epochs x sets, row-major; folded into stats_ by finish(). */
    std::vector<LineCell> cells_;
    /** The row of the fetch now accessing the L1 (beginFetch). */
    LineCell *row_ = nullptr;
    /** Evictions by use count below the histogram's overflow (the
     *  dead-on-fill slot 0 comes from the cells), folded into
     *  evictionUseHistogram by finish(). */
    std::vector<std::uint64_t> evictionUses_;
};

/** The memory stream's half of a record; see the file comment. */
class CacheStreamRecorder
{
  public:
    /** The tracker's position space starts at the line capacity: the
     *  distinct-block count is unknown, and compaction grows it. */
    explicit CacheStreamRecorder(const CacheConfig &cache)
        : lru_({cache.sets * cache.ways}),
          reuse_(std::size_t(cache.sets) * cache.ways) {}

    /** The fetch of @p block, in trace order: its reuse sample. */
    void onFetch(std::uint32_t block);
    /** A fetch the L0 did not serve: its L1 lines [first, last] and
     *  whether they hit; a miss gets its 3C class. */
    void onL1Access(std::uint32_t first, std::uint32_t last, bool hit);
    /** Write the reuse and 3C fields into the walk's @p record. */
    void finish(CacheStats &record) const;

  private:
    std::uint64_t reuseCold_ = 0, reuseMax_ = 0;
    std::array<std::uint64_t, 65> reuseBins_{};  ///< warm, by log2 key
    std::array<std::uint64_t, 3> missClasses_{};  ///< by MissClass
    LruStack lru_;  ///< first touches and FA residency, for 3C
    ReuseDistanceTracker reuse_;
};

/** One merged record as a CACHE-report scheme object. */
void writeScheme(support::JsonWriter &json, const CacheStats &stats);

/** The session-scoped CACHE-report store (report_store.hh). */
using cachestats = ReportStore<CacheStats>;

} // namespace tepic::fetch

#endif // TEPIC_FETCH_CACHE_STATS_HH
