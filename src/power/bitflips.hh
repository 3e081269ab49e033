/**
 * @file
 * Memory-bus power proxy (§5, Figure 14).
 *
 * The paper models power by counting transitions ("bit flips") on the
 * memory bus during instruction-miss traffic: each beat XORed with the
 * previous bus state, population count accumulated. Compression saves
 * power because a given number of flips delivers more instructions.
 */

#ifndef TEPIC_POWER_BITFLIPS_HH
#define TEPIC_POWER_BITFLIPS_HH

#include <cstdint>
#include <span>
#include <vector>

namespace tepic::power {

/**
 * One transfer folded for a bus of at most 8 bytes (BusModel::fold).
 * The flips between consecutive beats of a transfer do not depend on
 * the bus state, so a transfer repeated many times — a block's miss
 * fill, an ATT upload — is folded once and replayed with send(),
 * which pays only the one transition into firstBeat.
 */
struct Burst
{
    std::uint64_t firstBeat = 0;
    std::uint64_t lastBeat = 0;   ///< the bus state after the burst
    std::uint64_t innerFlips = 0; ///< flips between consecutive beats
    std::uint64_t beats = 0;      ///< 0 for an empty transfer
    std::uint64_t bytes = 0;
};

/**
 * A fixed-width memory bus with transition counting. Any positive
 * width is supported: buses up to 8 bytes keep the previous beat in
 * one machine word (the hot path), wider buses keep it as a byte
 * vector so no lane is silently dropped. A zero width is a checked
 * error.
 */
class BusModel
{
  public:
    explicit BusModel(unsigned width_bytes = 8);

    /**
     * Transfer @p bytes over the bus (padded to whole beats with
     * zeros) and account the transitions.
     */
    void transfer(std::span<const std::uint8_t> bytes);

    /** Whether fold() and send() apply (width <= 8 bytes). */
    bool foldable() const { return widthBytes_ <= 8; }

    /**
     * Fold @p bytes into a Burst for this bus's width; requires
     * foldable(). send(fold(bytes)) accounts exactly what
     * transfer(bytes) does, from any bus state.
     */
    Burst fold(std::span<const std::uint8_t> bytes) const;

    /** Replay a folded transfer (see fold()). */
    void send(const Burst &burst);

    std::uint64_t bitFlips() const { return bitFlips_; }
    std::uint64_t beats() const { return beats_; }
    std::uint64_t bytesTransferred() const { return bytes_; }

  private:
    unsigned widthBytes_;
    std::uint64_t last_ = 0;  ///< previous bus state (width <= 8)
    std::vector<std::uint8_t> lastWide_;  ///< previous beat (width > 8)
    std::uint64_t bitFlips_ = 0;
    std::uint64_t beats_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace tepic::power

#endif // TEPIC_POWER_BITFLIPS_HH
