#include "power/bitflips.hh"

#include <bit>
#include <cstring>

#include "support/logging.hh"
#include "support/popcount.hh"

namespace tepic::power {

namespace {

/**
 * One beat of up to 8 bytes as a word. Lane order is irrelevant to
 * the count: any fixed byte-to-bit mapping leaves popcount(a ^ b)
 * unchanged, so a plain memcpy serves every host byte order.
 */
inline std::uint64_t
loadBeat(const std::uint8_t *bytes, std::size_t n)
{
    std::uint64_t beat = 0;
    std::memcpy(&beat, bytes, n);
    return beat;
}

/** fold() for a bus of W bytes; the short tail is zero-padded. */
template <unsigned W>
[[gnu::always_inline]] inline Burst
foldBeats(const std::uint8_t *bytes, std::size_t size)
{
    Burst burst;
    burst.bytes = size;
    if (size == 0)
        return burst;
    std::size_t i = size < W ? size : W;
    std::uint64_t prev = loadBeat(bytes, i);
    std::uint64_t flips = 0;
    burst.firstBeat = prev;
    for (; i + W <= size; i += W) {
        const std::uint64_t beat = loadBeat(bytes + i, W);
        flips += std::uint64_t(std::popcount(beat ^ prev));
        prev = beat;
    }
    if (i < size) {
        const std::uint64_t beat = loadBeat(bytes + i, size - i);
        flips += std::uint64_t(std::popcount(beat ^ prev));
        prev = beat;
    }
    burst.lastBeat = prev;
    burst.innerFlips = flips;
    burst.beats = (size + W - 1) / W;
    return burst;
}

TEPIC_POPCNT_CLONES Burst
foldNarrow(const std::uint8_t *bytes, std::size_t size, unsigned width)
{
    switch (width) {
      case 1: return foldBeats<1>(bytes, size);
      case 2: return foldBeats<2>(bytes, size);
      case 3: return foldBeats<3>(bytes, size);
      case 4: return foldBeats<4>(bytes, size);
      case 5: return foldBeats<5>(bytes, size);
      case 6: return foldBeats<6>(bytes, size);
      case 7: return foldBeats<7>(bytes, size);
      default: return foldBeats<8>(bytes, size);
    }
}

} // namespace

BusModel::BusModel(unsigned width_bytes)
    : widthBytes_(width_bytes)
{
    TEPIC_ASSERT(width_bytes > 0, "bus width must be positive");
    if (widthBytes_ > 8)
        lastWide_.assign(widthBytes_, 0);
}

Burst
BusModel::fold(std::span<const std::uint8_t> bytes) const
{
    TEPIC_ASSERT(foldable(), "fold() on a ", widthBytes_,
                 "-byte bus (at most 8)");
    return foldNarrow(bytes.data(), bytes.size(), widthBytes_);
}

TEPIC_POPCNT_CLONES void
BusModel::send(const Burst &burst)
{
    if (burst.beats != 0) {
        bitFlips_ +=
            std::uint64_t(std::popcount(burst.firstBeat ^ last_)) +
            burst.innerFlips;
        last_ = burst.lastBeat;
        beats_ += burst.beats;
    }
    bytes_ += burst.bytes;
}

void
BusModel::transfer(std::span<const std::uint8_t> bytes)
{
    if (foldable()) {
        // Narrow path: the whole previous beat fits one word.
        send(fold(bytes));
        return;
    }
    // Wide path: per-lane previous state, so every lane of a >8-byte
    // bus is accounted (lanes 8.. were silently dropped before this
    // path existed).
    std::size_t i = 0;
    while (i < bytes.size()) {
        for (unsigned b = 0; b < widthBytes_; ++b) {
            const std::uint8_t byte =
                i + b < bytes.size() ? bytes[i + b] : 0;
            bitFlips_ += std::uint64_t(
                std::popcount(std::uint8_t(byte ^ lastWide_[b])));
            lastWide_[b] = byte;
        }
        ++beats_;
        i += widthBytes_;
    }
    bytes_ += bytes.size();
}

} // namespace tepic::power
