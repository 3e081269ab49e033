/**
 * @file
 * The fetch kernel's single observation point.
 *
 * simulateFetch() hands every completed fetch — one fetch-unit
 * traversal; one basic block in plain fetch — to each attached
 * FetchObserver exactly once, after its cycle accounting and its
 * next-fetch prediction are known. The per-fetch FetchTrace ring and
 * stall histograms, the CacheStatsRecorder (cache_stats.hh) and the
 * HotStatsRecorder (hot_stats.hh) all attach here; the banked L1's
 * CacheLineObserver (banked_cache.hh) stays the cache's own
 * line-granularity hook. Observers are purely observational: they
 * never feed back into the architectural model.
 */

#ifndef TEPIC_FETCH_FETCH_OBSERVER_HH
#define TEPIC_FETCH_FETCH_OBSERVER_HH

#include <cstdint>

namespace tepic::fetch {

/**
 * One recorded fetch: everything the cycle model saw. This is the
 * paper-facing per-access granularity (cf. the access-pattern traces
 * of Ozturk et al. and Touché's per-access counters) that the
 * aggregate FetchStats hide.
 */
struct FetchTraceRecord
{
    std::uint64_t index = 0;       ///< trace position of the head block
    std::uint32_t block = 0;       ///< head block of the fetch
    std::uint32_t cycles = 0;      ///< total charged, incl. ATB stall
    std::uint32_t stallCycles = 0; ///< cycles beyond the n_mops stream
    // Per-cause split of stallCycles (the Table-1 taxonomy); the four
    // fields tile stallCycles exactly, per record.
    std::uint32_t mispredictStall = 0;
    std::uint32_t refillStall = 0;
    std::uint32_t decodeStall = 0;
    std::uint32_t atbStall = 0;
    bool atbHit = false;
    bool l1Hit = false;
    bool l0Hit = false;            ///< meaningful for kCompressed only
    bool predictionCorrect = false;
};

/**
 * One completed fetch as every FetchObserver sees it: the record the
 * FetchTrace ring stores, plus the L1 request and the prediction made
 * for the follower.
 */
struct FetchObservation
{
    FetchTraceRecord record;
    std::uint32_t blocks = 1;        ///< trace events walked (1 = plain)
    std::uint32_t byteAddress = 0;   ///< L1 request (the unit's bytes)
    std::uint32_t byteSize = 0;
    /** The request's L1 line span [firstLine, lastLine] under the
     *  simulated geometry (set on L0 hits too). */
    std::uint32_t firstLine = 0;
    std::uint32_t lastLine = 0;
    bool branchTaken = false;        ///< direction the fetch left by
    /** Whether the prediction made at the end of this fetch named
     *  the follower (false on a side exit: nothing was predicted). */
    bool nextPredictionCorrect = true;
};

/** A per-fetch sink attached to simulateFetch(). */
class FetchObserver
{
  public:
    virtual ~FetchObserver() = default;
    virtual void onFetch(const FetchObservation &fetch) = 0;
};

} // namespace tepic::fetch

#endif // TEPIC_FETCH_FETCH_OBSERVER_HH
