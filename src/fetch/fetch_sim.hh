/**
 * @file
 * Trace-driven instruction-fetch simulator.
 *
 * Drives a dynamic block trace (from sim::emulate) through one of the
 * three IFetch organisations — Base (§3.4), Compressed (§4), Tailored
 * (§5) — combining the ATB (with its coupled branch predictor), the
 * banked L1, the L0 buffer, the Table-1 cycle model and the bus
 * bit-flip power model. Its outputs are exactly the metrics of
 * Figures 13 (operations delivered per cycle) and 14 (bus bit flips),
 * plus the ATB/Figure-7 statistics.
 *
 * The kernel walks fetch units (superblock.hh, §7): one fetch is one
 * unit traversal, and plain fetch is the identity partition (one
 * block per unit). Each fetch is the composition of three stages
 * (fetch_stages.hh): control (ATB + predictor), memory (L0 + L1) and
 * cost (cycle model, counters, bus). Every completed fetch is then
 * handed to the hot recorder, the kernel's one per-fetch hook
 * (FetchObservation, hot_stats.hh). The memory stage is the one
 * memory walk on its own thread: walkMemory() runs the L0 and the L1
 * over the fetches beside the kernel, which reads each fetch's outcome
 * once it is published. The CACHE record reads only that stage, so it
 * is not a hook: its L0/L1 half rides the walk, its reuse and 3C half
 * a second reader of the published outcomes (a third thread), and
 * simulateFetch merges them and checks them against its counters.
 */

#ifndef TEPIC_FETCH_FETCH_SIM_HH
#define TEPIC_FETCH_FETCH_SIM_HH

#include <cstdint>

#include "codec/decoder.hh"
#include "fetch/att.hh"
#include "fetch/banked_cache.hh"
#include "fetch/cache_stats.hh"
#include "fetch/cycle_model.hh"
#include "fetch/hot_stats.hh"
#include "fetch/l0_buffer.hh"
#include "isa/image.hh"
#include "isa/program.hh"
#include "power/bitflips.hh"
#include "sim/emulator.hh"

namespace tepic::fetch {

struct FetchUnits;

/** The memory bus width: the paper's 64-bit bus. */
inline constexpr unsigned kBusWidthBytes = 8;

struct FetchConfig
{
    SchemeClass scheme = SchemeClass::kBase;
    CacheConfig cache = CacheConfig::paperCompressed();
    unsigned atbEntries = 64;
    PredictorConfig predictor;    ///< §3.4 default: per-entry 2-bit
    unsigned l0CapacityOps = 32;  ///< compressed scheme only
    CyclePenalties penalties;
    /**
     * Record cache behavior (cache_stats.hh: 3C, reuse distances,
     * per-set heatmaps; read off the memory walk on two threads of
     * their own) and dynamic program behavior (hot_stats.hh: block
     * hotness, branch sites, phases; a per-fetch hook). Purely
     * observational, so every other stat is the same either way.
     */
    bool recordCacheStats = false;
    bool recordHotStats = false;

    /**
     * Optional decoded-block cache (codec/decoder.hh): when set, the
     * simulator touches it once per fetched block, so each static
     * block is host-decoded exactly once per simulation and replayed
     * thereafter. Purely a host-side accelerator: every architectural
     * number (cycles, stall tiling, L0/ATB state, bus bit flips) is
     * computed from image metadata and the trace, never from decoded
     * operations, so stats with and without a cache are identical
     * (asserted by tests). The caller owns the cache (and reads its
     * hit/miss counters afterwards); it must wrap a decoder over the
     * same image being simulated.
     */
    codec::DecodedBlockCache *decodedBlocks = nullptr;

    /**
     * Optional fetch-unit partition (superblock.hh): when set, each
     * fetch traverses one unit — one ATT entry, ATB access, L1
     * request and next-unit prediction per traversal, a side exit
     * charged as a mispredict — instead of one basic block. Null is
     * the identity partition. The caller owns the partition; it must
     * be formed over the program being simulated.
     */
    const FetchUnits *units = nullptr;

    /** Paper configuration for a scheme (cache geometry per §5). */
    static FetchConfig
    paper(SchemeClass scheme)
    {
        FetchConfig config;
        config.scheme = scheme;
        config.cache = scheme == SchemeClass::kBase
            ? CacheConfig::paperBase()
            : CacheConfig::paperCompressed();
        return config;
    }
};

struct FetchStats
{
    std::uint64_t cycles = 0;
    std::uint64_t idealCycles = 0;   ///< Σ n_mops (perfect everything)
    std::uint64_t opsDelivered = 0;
    std::uint64_t blocksFetched = 0;  ///< trace events walked
    /** Fetches made: one per unit traversal (== blocksFetched in
     *  plain fetch), each consuming exactly one prediction. */
    std::uint64_t fetches = 0;
    /** Unit traversals left before the tail (0 in plain fetch). */
    std::uint64_t sideExits = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l0Hits = 0;
    std::uint64_t l0Misses = 0;
    std::uint64_t atbHits = 0;
    std::uint64_t atbMisses = 0;
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;

    std::uint64_t linesTransferred = 0;
    std::uint64_t busBeats = 0;
    std::uint64_t busBitFlips = 0;
    std::uint64_t bytesTransferred = 0;

    /** Cycles beyond Σ n_mops: miss repair, mispredict, decompressor
     *  setup — the paper's "compression ratio is not IPC" cost. */
    std::uint64_t stallCycles = 0;

    /**
     * Exact per-cause split of stallCycles (Table-1 taxonomy; see
     * StallBreakdown). Tiling invariant, tested for every scheme:
     *
     *   mispredictStallCycles + refillStallCycles + decodeStallCycles
     *     + atbStallCycles == stallCycles
     */
    std::uint64_t mispredictStallCycles = 0; ///< redirect repair
    std::uint64_t refillStallCycles = 0;     ///< L1 line refill + miss stages
    std::uint64_t decodeStallCycles = 0;     ///< compressed decoder stage
    std::uint64_t atbStallCycles = 0;        ///< ATT fetch on ATB miss
    /** Stall cycles the L0 bypass avoided (a saving, not a stall —
     *  deliberately outside the tiling sum). Compressed only. */
    std::uint64_t l0SavedCycles = 0;

    /** The recorders' records (FetchConfig::recordCacheStats /
     *  recordHotStats); see cache_stats.hh and hot_stats.hh for
     *  their tiling contracts. */
    CacheStats cacheStats;
    HotStats hotStats;

    double
    ipc() const
    {
        return cycles ? double(opsDelivered) / double(cycles) : 0.0;
    }

    double
    idealIpc() const
    {
        return idealCycles ? double(opsDelivered) / double(idealCycles)
                           : 0.0;
    }

    double
    l1HitRate() const
    {
        const std::uint64_t total = l1Hits + l1Misses;
        return total ? double(l1Hits) / double(total) : 0.0;
    }

    double
    sideExitRate() const
    {
        return fetches ? double(sideExits) / double(fetches) : 0.0;
    }

    double
    predictionAccuracy() const
    {
        const std::uint64_t total =
            predictionsCorrect + predictionsWrong;
        return total ? double(predictionsCorrect) / double(total) : 0.0;
    }
};

/**
 * Run the fetch simulation of @p image under @p config over @p trace.
 * The image must describe the same program whose execution produced
 * the trace (and config.units, when set, must partition it).
 */
FetchStats simulateFetch(const isa::Image &image,
                         const isa::VliwProgram &program,
                         const sim::BlockTrace &trace,
                         const FetchConfig &config);

} // namespace tepic::fetch

#endif // TEPIC_FETCH_FETCH_SIM_HH
