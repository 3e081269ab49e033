/**
 * @file
 * Next-block direction predictors.
 *
 * The paper couples a 2-bit saturating counter [13] plus a last-target
 * register with each ATB entry (§3.4) and notes that "theoretically
 * more complex branch predictors could be used (e.g., gshare or PAs
 * Yeh/Patt predictor)" — this module provides exactly those three
 * direction predictors behind one interface, so the fetch simulator
 * can sweep them (bench/ablation_predictor). Target prediction is
 * common to all of them: taken -> per-block last target, not taken ->
 * static fallthrough (the ATB's job).
 *
 *  - kBimodal: the paper's per-entry 2-bit counter (state lives in
 *    the ATB entry and is lost on ATB eviction, as in the paper);
 *  - kGshare: global history XOR block id indexing a global PHT
 *    (survives ATB eviction — it is a separate structure);
 *  - kPas: per-address (set-associative ATB-entry) history registers
 *    indexing a shared pattern table of 2-bit counters.
 */

#ifndef TEPIC_FETCH_PREDICTOR_HH
#define TEPIC_FETCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace tepic::fetch {

enum class PredictorKind : std::uint8_t {
    kBimodal,  ///< the paper's 2-bit counter per ATB entry
    kGshare,
    kPas,      ///< Yeh/Patt per-address two-level
};

const char *predictorKindName(PredictorKind kind);

struct PredictorConfig
{
    PredictorKind kind = PredictorKind::kBimodal;
};

/**
 * Direction state shared across ATB entries (gshare/PAs tables).
 * Bimodal keeps all state in the per-entry counters, so this class
 * degenerates to bookkeeping for it.
 */
class DirectionPredictor
{
  public:
    explicit DirectionPredictor(const PredictorConfig &config);

    /**
     * Predict taken/not-taken for @p block given the per-entry 2-bit
     * counter @p entry_counter (bimodal state lives in the ATB).
     */
    bool predictTaken(isa::BlockId block,
                      std::uint8_t entry_counter) const;

    /** Train with the resolved outcome; updates global structures. */
    void update(isa::BlockId block, bool taken);

  private:
    /** gshare's global history length, also the PHT index width. */
    static constexpr unsigned kGshareHistoryBits = 8;
    /** PAs per-block history length. */
    static constexpr unsigned kPasHistoryBits = 6;
    /** PAs history registers, direct-mapped by block id. */
    static constexpr std::uint32_t kPasHistoryRegs = 1024;

    std::size_t
    gshareIndex(isa::BlockId block) const
    {
        return (globalHistory_ ^ block) & ((1u << kGshareHistoryBits) - 1);
    }

    static std::size_t
    pasRegister(isa::BlockId block)
    {
        return block & (kPasHistoryRegs - 1);
    }

    std::size_t
    pasPatternIndex(isa::BlockId block) const
    {
        return historyRegs_[pasRegister(block)] &
               ((1u << kPasHistoryBits) - 1);
    }

    PredictorConfig config_;
    // gshare
    std::uint32_t globalHistory_ = 0;
    std::vector<std::uint8_t> pht_;
    // PAs: per-block history registers (direct-mapped by block id)
    // feeding a shared pattern table.
    std::vector<std::uint32_t> historyRegs_;
    std::vector<std::uint8_t> patternTable_;
};

// The per-fetch path, inline so the fetch kernel's compilation unit
// sees through it.

inline bool
DirectionPredictor::predictTaken(isa::BlockId block,
                                 std::uint8_t entry_counter) const
{
    switch (config_.kind) {
      case PredictorKind::kBimodal:
        return entry_counter >= 2;
      case PredictorKind::kGshare:
        return pht_[gshareIndex(block)] >= 2;
      case PredictorKind::kPas:
        return patternTable_[pasPatternIndex(block)] >= 2;
    }
    return false;
}

inline void
DirectionPredictor::update(isa::BlockId block, bool taken)
{
    switch (config_.kind) {
      case PredictorKind::kBimodal:
        break;  // per-entry counter updated by the ATB
      case PredictorKind::kGshare: {
        std::uint8_t &counter = pht_[gshareIndex(block)];
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        globalHistory_ =
            (globalHistory_ << 1) | (taken ? 1u : 0u);
        break;
      }
      case PredictorKind::kPas: {
        std::uint8_t &counter =
            patternTable_[pasPatternIndex(block)];
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        std::uint32_t &hist = historyRegs_[pasRegister(block)];
        hist = (hist << 1) | (taken ? 1u : 0u);
        break;
      }
    }
}

} // namespace tepic::fetch

#endif // TEPIC_FETCH_PREDICTOR_HH
