/**
 * @file
 * Power-model and decoder-cost tests: bus bit-flip accounting against
 * hand-computed sequences, folded bursts against plain transfers and
 * a byte-at-a-time reference, and the paper's §3.5 transistor-count
 * formula evaluated at known points.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "compiler/driver.hh"
#include "decoder/complexity.hh"
#include "power/bitflips.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/tailored.hh"
#include "support/rng.hh"

namespace {

using namespace tepic;

TEST(BusModel, HandComputedFlips)
{
    power::BusModel bus(1);  // 1-byte bus for easy counting
    const std::uint8_t a[] = {0xff};
    bus.transfer(a);
    EXPECT_EQ(bus.bitFlips(), 8u);  // from idle 0x00 to 0xff
    const std::uint8_t b[] = {0xff};
    bus.transfer(b);
    EXPECT_EQ(bus.bitFlips(), 8u);  // unchanged bus: no flips
    const std::uint8_t c[] = {0x0f};
    bus.transfer(c);
    EXPECT_EQ(bus.bitFlips(), 12u);  // high nibble toggles
    EXPECT_EQ(bus.beats(), 3u);
    EXPECT_EQ(bus.bytesTransferred(), 3u);
}

TEST(BusModel, WideBusPadsWithZeros)
{
    power::BusModel bus(8);
    const std::uint8_t data[] = {0xff, 0xff, 0xff};  // one beat
    bus.transfer(data);
    EXPECT_EQ(bus.beats(), 1u);
    EXPECT_EQ(bus.bitFlips(), 24u);
    const std::uint8_t more[12] = {0};  // two beats of zeros
    bus.transfer(more);
    EXPECT_EQ(bus.beats(), 3u);
    EXPECT_EQ(bus.bitFlips(), 24u + 24u);  // first beat clears 24 ones
}

TEST(BusModel, StatePersistsAcrossTransfers)
{
    power::BusModel bus(2);
    const std::uint8_t a[] = {0xaa, 0xaa};
    const std::uint8_t b[] = {0x55, 0x55};
    bus.transfer(a);
    const auto after_a = bus.bitFlips();
    bus.transfer(b);
    EXPECT_EQ(bus.bitFlips() - after_a, 16u);  // full toggle
}

TEST(BusModel, WideBusCountsEveryLane)
{
    // Regression: widths beyond 8 bytes once silently truncated to
    // the first 8 lanes. A 16-byte bus must see flips in lanes 8..15.
    power::BusModel bus(16);
    std::uint8_t beat[16] = {0};
    beat[0] = 0xff;   // lane 0:  8 flips from idle
    beat[8] = 0xff;   // lane 8:  8 flips — lost before the fix
    beat[15] = 0x0f;  // lane 15: 4 flips — likewise
    bus.transfer(beat);
    EXPECT_EQ(bus.beats(), 1u);
    EXPECT_EQ(bus.bitFlips(), 20u);

    // Repeating the beat toggles nothing: the wide lanes keep state.
    bus.transfer(beat);
    EXPECT_EQ(bus.bitFlips(), 20u);

    // Clearing only the high lanes flips exactly those bits back.
    std::uint8_t clear[16] = {0};
    clear[0] = 0xff;
    bus.transfer(clear);
    EXPECT_EQ(bus.bitFlips(), 32u);  // lanes 8 and 15 return to zero
}

TEST(BusModel, WideBusPadsShortTailWithZeros)
{
    power::BusModel bus(12);  // non-power-of-two width
    std::uint8_t ones[12];
    for (std::uint8_t &byte : ones)
        byte = 0xff;
    bus.transfer(ones);
    EXPECT_EQ(bus.beats(), 1u);
    EXPECT_EQ(bus.bitFlips(), 96u);

    // A 4-byte transfer is one beat with 8 zero-padded tail lanes —
    // the pad clears the ones left on lanes 4..11.
    const std::uint8_t tail[4] = {0xff, 0xff, 0xff, 0xff};
    bus.transfer(tail);
    EXPECT_EQ(bus.beats(), 2u);
    EXPECT_EQ(bus.bitFlips(), 96u + 64u);
    EXPECT_EQ(bus.bytesTransferred(), 16u);
}

TEST(BusModel, NarrowAndWidePathsAgreeAtTheBoundary)
{
    // The 8-byte word path and the per-lane vector path must count
    // identically; drive both with the same beat sequence.
    power::BusModel narrow(8);
    power::BusModel wide(9);
    const std::uint8_t a[] = {0x12, 0x34, 0x56, 0x78,
                              0x9a, 0xbc, 0xde, 0xf0};
    const std::uint8_t b[] = {0x0f, 0xf0, 0xaa, 0x55,
                              0x00, 0xff, 0x33, 0xcc};
    narrow.transfer(a);
    narrow.transfer(b);
    // The 9-byte bus fits each 8-byte transfer in one beat; lane 8
    // stays zero throughout, so the flip count must match exactly.
    wide.transfer(a);
    wide.transfer(b);
    EXPECT_EQ(narrow.bitFlips(), wide.bitFlips());
    EXPECT_EQ(narrow.beats(), wide.beats());
}

/**
 * Byte-at-a-time reference for a bus of at most 8 bytes: each beat
 * packed lane by lane, the short tail zero-padded, flips counted
 * against the previous beat.
 */
struct ReferenceBus
{
    unsigned width;
    std::uint64_t last = 0, flips = 0, beats = 0, bytes = 0;

    void
    transfer(const std::vector<std::uint8_t> &data)
    {
        for (std::size_t i = 0; i < data.size(); i += width) {
            std::uint64_t beat = 0;
            for (unsigned b = 0; b < width; ++b) {
                const std::uint8_t byte =
                    i + b < data.size() ? data[i + b] : 0;
                beat |= std::uint64_t(byte) << (8 * b);
            }
            flips += std::uint64_t(std::popcount(beat ^ last));
            last = beat;
            ++beats;
        }
        bytes += data.size();
    }
};

/**
 * send(fold(bytes)) == transfer(bytes) == the reference, for every
 * narrow width, over seeded random spans (empty ones and short tails
 * included) with transfers and sends mixed on one bus, so the state
 * a burst starts from is whatever the previous operation left.
 */
TEST(BusModel, FoldedBurstsMatchTransfers)
{
    for (unsigned width = 1; width <= 8; ++width) {
        power::BusModel by_transfer(width), mixed(width);
        ReferenceBus reference{width};
        ASSERT_TRUE(mixed.foldable());
        support::Rng rng(width);
        for (int step = 0; step < 400; ++step) {
            std::vector<std::uint8_t> data(
                std::size_t(rng.below(4 * width + 3)));
            for (std::uint8_t &byte : data)
                byte = std::uint8_t(rng.next());

            const power::Burst burst = mixed.fold(data);
            EXPECT_EQ(burst.beats, (data.size() + width - 1) / width);
            EXPECT_EQ(burst.bytes, data.size());
            if (rng.below(2) == 0) {
                mixed.send(burst);
                // A folded burst replays identically.
                if (rng.below(4) == 0) {
                    mixed.send(burst);
                    by_transfer.transfer(data);
                    reference.transfer(data);
                }
            } else {
                mixed.transfer(data);
            }
            by_transfer.transfer(data);
            reference.transfer(data);

            ASSERT_EQ(by_transfer.bitFlips(), reference.flips)
                << "width " << width << " step " << step;
            ASSERT_EQ(mixed.bitFlips(), reference.flips)
                << "width " << width << " step " << step;
            ASSERT_EQ(mixed.beats(), reference.beats);
            ASSERT_EQ(by_transfer.beats(), reference.beats);
            ASSERT_EQ(mixed.bytesTransferred(), reference.bytes);
            ASSERT_EQ(by_transfer.bytesTransferred(), reference.bytes);
        }
    }
    // Wider buses keep the per-lane transfer path.
    EXPECT_FALSE(power::BusModel(9).foldable());
}

TEST(BusModel, EmptyBurstLeavesTheBusAlone)
{
    power::BusModel bus(4);
    const std::uint8_t ones[] = {0xff, 0xff};
    bus.transfer(ones);
    const power::Burst empty = bus.fold({});
    EXPECT_EQ(empty.beats, 0u);
    bus.send(empty);
    EXPECT_EQ(bus.beats(), 1u);
    EXPECT_EQ(bus.bitFlips(), 16u);
    // The bus still holds 0xffff: repeating it costs nothing.
    bus.send(bus.fold(ones));
    EXPECT_EQ(bus.bitFlips(), 16u);
    EXPECT_EQ(bus.bytesTransferred(), 4u);
}

TEST(DecoderCost, FormulaAtKnownPoints)
{
    // T = 2m(2^n - 1) + 4m(2^n - 2^(n-1) - 1) + 2n
    decoder::HuffmanDecoderParams p;
    p.n = 1;
    p.m = 8;
    p.k = 2;
    // 2*8*1 + 4*8*(2-1-1) + 2 = 16 + 0 + 2
    EXPECT_EQ(decoder::huffmanDecoderTransistors(p), 18u);

    p.n = 4;
    p.m = 8;
    // 2*8*15 + 4*8*(16-8-1) + 8 = 240 + 224 + 8
    EXPECT_EQ(decoder::huffmanDecoderTransistors(p), 472u);

    p.n = 16;
    p.m = 40;
    const std::uint64_t expect = 2ull * 40 * 65535 +
                                 4ull * 40 * (65536 - 32768 - 1) +
                                 32;
    EXPECT_EQ(decoder::huffmanDecoderTransistors(p), expect);
}

TEST(DecoderCost, GrowsWithDepthAndSymbolWidth)
{
    decoder::HuffmanDecoderParams small{8, 100, 8};
    decoder::HuffmanDecoderParams deeper{12, 100, 8};
    decoder::HuffmanDecoderParams wider{8, 100, 40};
    EXPECT_LT(decoder::huffmanDecoderTransistors(small),
              decoder::huffmanDecoderTransistors(deeper));
    EXPECT_LT(decoder::huffmanDecoderTransistors(small),
              decoder::huffmanDecoderTransistors(wider));
}

TEST(DecoderCost, SchemeOrderingOnRealProgram)
{
    auto compiled = compiler::compileSource(R"(
        var data[128];
        func work(a, b): int { return a * b + (a ^ b); }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 128; i = i + 1) {
                data[i] = work(i, s);
                s = s + data[i] % 97;
            }
            return s;
        }
    )");
    const auto &program = compiled.program;
    const auto byte_cost = decoder::decoderTransistors(
        schemes::compressByte(program));
    const auto full_cost = decoder::decoderTransistors(
        schemes::compressFull(program));
    const auto tailored_cost = decoder::tailoredDecoderTransistors(
        schemes::TailoredIsa::build(program));

    // The paper's Figure 10 ordering: tailored (a small PLA) is far
    // cheaper than any Huffman decoder; byte-wise is the smallest of
    // the Huffman options.
    EXPECT_LT(tailored_cost, byte_cost);
    EXPECT_LT(byte_cost, full_cost);
}

TEST(DecoderCost, TailoredPlaTracksOpcodeCount)
{
    auto tiny = compiler::compileSource(
        "func main(): int { return 1; }");
    auto bigger = compiler::compileSource(R"(
        var a[16];
        func main(): int {
            var s = 0;
            var f: float = 1.0;
            for (var i = 0; i < 16; i = i + 1) {
                a[i] = i * 3 - (i >> 1);
                s = s ^ a[i];
                f = f * 1.5;
            }
            return s + int(f) % 100;
        }
    )");
    const auto tiny_isa =
        schemes::TailoredIsa::build(tiny.program);
    const auto big_isa =
        schemes::TailoredIsa::build(bigger.program);
    EXPECT_LT(tiny_isa.distinctOpcodes(), big_isa.distinctOpcodes());
    EXPECT_LT(decoder::tailoredDecoderTransistors(tiny_isa),
              decoder::tailoredDecoderTransistors(big_isa));
}

} // namespace
