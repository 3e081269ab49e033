/**
 * @file
 * The fetch kernel's single observation point.
 *
 * simulateFetch() hands every completed fetch — one fetch-unit
 * traversal; one basic block in plain fetch — to each attached
 * FetchObserver exactly once, after its cycle accounting and its
 * next-fetch prediction are known. The CacheStatsRecorder
 * (cache_stats.hh) and the HotStatsRecorder (hot_stats.hh) attach
 * here; the banked L1's CacheLineObserver (banked_cache.hh) stays the
 * cache's own line-granularity hook. Observers are purely
 * observational: they never feed back into the architectural model.
 */

#ifndef TEPIC_FETCH_FETCH_OBSERVER_HH
#define TEPIC_FETCH_FETCH_OBSERVER_HH

#include <cstdint>

namespace tepic::fetch {

/**
 * One completed fetch as every FetchObserver sees it: where it sits
 * in the trace, what the cycle model charged, which structures hit,
 * the L1 request and the prediction made for the follower. This is
 * the paper-facing per-access granularity (cf. the access-pattern
 * traces of Ozturk et al.) that the aggregate FetchStats hide.
 */
struct FetchObservation
{
    std::uint64_t index = 0;         ///< trace position of the head block
    std::uint32_t block = 0;         ///< head block of the fetch
    std::uint32_t blocks = 1;        ///< trace events walked (1 = plain)
    std::uint32_t cycles = 0;        ///< total charged, incl. ATB stall
    std::uint32_t stallCycles = 0;   ///< cycles beyond the n_mops stream
    /** The mispredict-repair part of stallCycles (charged at the
     *  fetch after the wrong prediction). */
    std::uint32_t mispredictStall = 0;
    bool atbHit = false;
    bool l1Hit = false;
    bool l0Hit = false;              ///< meaningful for kCompressed only
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
