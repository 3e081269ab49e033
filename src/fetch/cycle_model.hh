/**
 * @file
 * The Table-1 cycle-count model.
 *
 * The paper's Table 1 gives the cost of every block-transition class
 * per scheme. Interpretation (documented in DESIGN.md §4): a block of
 * `n_mops` MOPs and `n_lines` memory lines costs
 *
 *     cycles = n_mops + stall
 *
 * — every datapath streams one MOP per cycle once flowing (the
 * Huffman decompressors are pipeline stages, one per issue slot, so
 * they cost latency on redirects and refills, not throughput) — with
 * `stall` from Table 1 (leading constant minus one, plus the (n-1)
 * miss-repair term, n = n_lines):
 *
 *                    pred-ok                 mispredicted
 *                  hit      miss           hit       miss
 *   Base            0      n_l-1            1      7+(n_l-1)
 *   Tailored        0      1+(n_l-1)        1      8+(n_l-1)
 *   Compressed/L0-miss:
 *                   0      2+(n_l-1)        2      9+(n_l-1)
 *   Compressed/L0-hit: 0 in every column (Table 1's buffer-hit rows
 *   are a flat "1 cycle" — the L0 is read in parallel with the L1 and
 *   bypasses the decompressor, even on a mispredicted transition)
 *
 * Base and Tailored have no L0 buffer (the table's Buffer rows repeat
 * for them). "Ideal" is Σ n_mops: perfect cache + perfect prediction.
 * The compressed scheme's defining property — "the missprediction
 * penalty of the added Huffman decoder stage" (§7) — is the extra
 * `compressedDecodeStage` cycle on every mispredicted L0-missing
 * transition.
 */

#ifndef TEPIC_FETCH_CYCLE_MODEL_HH
#define TEPIC_FETCH_CYCLE_MODEL_HH

#include <cstdint>

#include "support/logging.hh"

namespace tepic::fetch {

/** The three IFetch organisations of the study. */
enum class SchemeClass : std::uint8_t {
    kBase,        ///< uncompressed 40-bit ops, banked cache (§3.4)
    kTailored,    ///< tailored ISA, extra miss-path stage (§5)
    kCompressed,  ///< full-op Huffman, hit-path decompressor + L0 (§4)
};

const char *schemeClassName(SchemeClass scheme);

/** What happened on one block fetch. */
struct FetchEvent
{
    bool predictionCorrect = true;
    bool l1Hit = true;
    bool l0Hit = false;  ///< meaningful for kCompressed only
};

/** Tunable penalty constants (defaults = Table 1). */
struct CyclePenalties
{
    unsigned mispredictRefill = 1;      ///< hit-path mispredict stall
    unsigned mispredictMissBase = 7;    ///< Base mispredict+miss stall
    unsigned tailoredMissExtra = 1;     ///< Tailored extra miss stage
    unsigned compressedMissExtra = 2;   ///< Compressed fill+decode setup
    unsigned compressedDecodeStage = 1; ///< decoder stage on redirects
    unsigned atbMissPenalty = 2;        ///< ATT fetch on ATB miss
};

/**
 * Exact decomposition of one block's stall cycles into the Table-1
 * mechanisms the paper argues from (§7: compression ratio is not IPC
 * because each mechanism taxes the fetch pipeline differently).
 *
 * Attribution rules:
 *  - `l1Refill` — the (n-1) miss-repair term plus the per-scheme miss
 *    stage (Tailored MOP extraction, Compressed fill+decode setup):
 *    every cycle spent bringing lines in and restarting the stream.
 *  - `mispredict` — the redirect repair constant (hit or miss path).
 *  - `decodeStage` — the compressed scheme's extra Huffman decoder
 *    stage on a mispredicted hit-path refill (on a miss its latency
 *    hides under the fill setup, so it attributes to l1Refill there).
 *  - `atbMiss` — the ATT upload on an ATB miss. stallBreakdown()
 *    leaves it 0; the fetch simulator fills it in (the ATB sits in
 *    front of the cycle model).
 *
 * Tiling invariant (tested): total() == the stall that blockCycles()
 * charges, i.e. blockCycles == n_mops + total() once atbMiss is added.
 */
struct StallBreakdown
{
    std::uint64_t mispredict = 0;
    std::uint64_t l1Refill = 0;
    std::uint64_t decodeStage = 0;
    std::uint64_t atbMiss = 0;

    std::uint64_t
    total() const
    {
        return mispredict + l1Refill + decodeStage + atbMiss;
    }
};

/**
 * Decompose the stall cycles of one block fetch (everything beyond
 * the n_mops delivery stream) into the Table-1 causes. atbMiss is
 * always 0 here — the ATB is modelled outside blockCycles().
 */
inline StallBreakdown
stallBreakdown(SchemeClass scheme, const FetchEvent &event,
               std::uint32_t n_mops, std::uint32_t n_ops,
               std::uint32_t n_lines, const CyclePenalties &p = {})
{
    TEPIC_ASSERT(n_mops > 0 && n_ops >= n_mops && n_lines > 0,
                 "bad block shape: mops=", n_mops, " ops=", n_ops,
                 " lines=", n_lines);

    StallBreakdown causes;
    const std::uint64_t repair = n_lines - 1;

    switch (scheme) {
      case SchemeClass::kBase:
        if (!event.l1Hit)
            causes.l1Refill += repair;
        if (!event.predictionCorrect)
            causes.mispredict += event.l1Hit ? p.mispredictRefill
                                             : p.mispredictMissBase;
        break;
      case SchemeClass::kTailored:
        // Extra stage on the *miss* path only (MOP extraction and
        // restricted placement, §5/Figure 12).
        if (!event.l1Hit)
            causes.l1Refill += p.tailoredMissExtra + repair;
        if (!event.predictionCorrect)
            causes.mispredict += event.l1Hit ? p.mispredictRefill
                                             : p.mispredictMissBase;
        break;
      case SchemeClass::kCompressed:
        if (event.l0Hit) {
            // Decompressed ops ready in the L0 buffer, which is
            // accessed in parallel with (and has priority over) the
            // L1: every Table-1 buffer-hit row is a flat "1 cycle",
            // even on a mispredicted transition.
            break;
        }
        if (!event.l1Hit)
            causes.l1Refill += p.compressedMissExtra + repair;
        if (!event.predictionCorrect) {
            // The decompressor stage lengthens the hit-path refill by
            // one cycle relative to Base; on a miss its latency hides
            // under the miss-extra setup (Table 1: 10+(n-1) vs Base's
            // 8+(n-1), i.e. exactly the miss-extra delta).
            if (event.l1Hit) {
                causes.mispredict += p.mispredictRefill;
                causes.decodeStage += p.compressedDecodeStage;
            } else {
                causes.mispredict += p.mispredictMissBase;
            }
        }
        break;
    }
    return causes;
}

/**
 * Stall cycles a compressed-scheme L0 hit avoided: the stall of the
 * counterfactual L0 miss served from a hitting L1 (the conservative
 * lower bound — a real miss would have cost the refill on top).
 * Zero for the other schemes and for L0 misses.
 */
inline std::uint64_t
l0BypassSavings(SchemeClass scheme, const FetchEvent &event,
                const CyclePenalties &p = {})
{
    if (scheme != SchemeClass::kCompressed || !event.l0Hit)
        return 0;
    // Counterfactual: the same transition missing the L0 but hitting
    // the L1 — a mispredicted one would have paid the redirect plus
    // the decoder stage; a predicted one streams for free either way.
    if (event.predictionCorrect)
        return 0;
    return std::uint64_t(p.mispredictRefill) + p.compressedDecodeStage;
}

/** Cycles to fetch and deliver one block under @p scheme. */
std::uint64_t
blockCycles(SchemeClass scheme, const FetchEvent &event,
            std::uint32_t n_mops, std::uint32_t n_ops,
            std::uint32_t n_lines, const CyclePenalties &p = {});

} // namespace tepic::fetch

#endif // TEPIC_FETCH_CYCLE_MODEL_HH
