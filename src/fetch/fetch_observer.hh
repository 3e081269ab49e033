/**
 * @file
 * The fetch kernel's one per-fetch hook.
 *
 * simulateFetch() hands every completed fetch — one fetch-unit
 * traversal; one basic block in plain fetch — to the
 * HotStatsRecorder (hot_stats.hh) exactly once, by a direct call made
 * after the fetch's cycle accounting and its next-fetch prediction
 * are known. The CACHE record needs none of that: it reads only the
 * memory stage, the one memory walk on its own thread beside the
 * kernel (walkMemory(), fetch_stages.hh), whose L1 keeps the cache's
 * own line hook (CacheLineObserver, banked_cache.hh).
 * Recording is purely observational: nothing feeds back into the
 * architectural model.
 */

#ifndef TEPIC_FETCH_FETCH_OBSERVER_HH
#define TEPIC_FETCH_FETCH_OBSERVER_HH

#include <cstdint>

namespace tepic::fetch {

/**
 * One completed fetch as the hot recorder sees it: where it sits in
 * the trace, what the cycle model charged and the prediction made for
 * the follower. This is the paper-facing per-access granularity (cf.
 * the access-pattern traces of Ozturk et al.) that the aggregate
 * FetchStats hide.
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

} // namespace tepic::fetch

#endif // TEPIC_FETCH_FETCH_OBSERVER_HH
