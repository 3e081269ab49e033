/**
 * @file
 * Compression-scheme tests: stream configurations, Huffman image
 * round trips over all alphabets, tailored-ISA structure and round
 * trip, block alignment discipline, and the size orderings the
 * paper's Figure 5 rests on.
 */

#include <gtest/gtest.h>

#include "compiler/driver.hh"
#include "schemes/dictionary.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/stream_config.hh"
#include "schemes/tailored.hh"

namespace {

using namespace tepic;
using schemes::CompressedImage;

const isa::VliwProgram &
sampleProgram()
{
    static const compiler::CompiledProgram compiled =
        compiler::compileSource(R"(
        var table[64];
        func mix(a, b): int { return (a * 31 + b) ^ (a >> 3); }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 64; i = i + 1) {
                table[i] = mix(i, s);
                s = s + table[i];
                if (s % 7 == 0) { s = s + 1; }
            }
            var f: float = 1.5;
            f = f * 2.0 + 0.25;
            return s + int(f);
        }
    )");
    return compiled.program;
}

void
expectSameOps(const std::vector<std::vector<isa::Operation>> &decoded,
              const isa::VliwProgram &program)
{
    ASSERT_EQ(decoded.size(), program.blocks().size());
    for (const auto &blk : program.blocks()) {
        std::size_t i = 0;
        for (const auto &mop : blk.mops) {
            for (const auto &op : mop.ops()) {
                ASSERT_LT(i, decoded[blk.id].size());
                EXPECT_EQ(decoded[blk.id][i], op);
                ++i;
            }
        }
        EXPECT_EQ(i, decoded[blk.id].size());
    }
}

TEST(StreamConfigs, SixConfigsCoverFortyBits)
{
    const auto &configs = schemes::allStreamConfigs();
    EXPECT_EQ(configs.size(), 6u);
    for (const auto &cfg : configs) {
        unsigned total = 0;
        for (unsigned w : cfg.widths)
            total += w;
        EXPECT_EQ(total, isa::kOpBits) << cfg.name;
    }
    EXPECT_ANY_THROW(schemes::streamConfigByName("nope"));
    EXPECT_EQ(schemes::streamConfigByName("quarters").widths.size(),
              4u);
}

TEST(HuffmanSchemes, ByteRoundTrip)
{
    const auto &program = sampleProgram();
    const CompressedImage img = schemes::compressByte(program);
    expectSameOps(schemes::decompress(img), program);
    EXPECT_EQ(img.tables.size(), 1u);
    EXPECT_EQ(img.symbolBits[0], 8u);
    EXPECT_LE(img.tables[0].size(), 256u);
}

TEST(HuffmanSchemes, FullRoundTrip)
{
    const auto &program = sampleProgram();
    const CompressedImage img = schemes::compressFull(program);
    expectSameOps(schemes::decompress(img), program);
    EXPECT_EQ(img.symbolBits[0], 40u);
}

class StreamRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StreamRoundTrip, RoundTrips)
{
    const auto &program = sampleProgram();
    const auto &cfg = schemes::streamConfigByName(GetParam());
    const CompressedImage img = schemes::compressStream(program, cfg);
    expectSameOps(schemes::decompress(img), program);
    EXPECT_EQ(img.tables.size(), cfg.widths.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, StreamRoundTrip,
    ::testing::Values("hdr-src-mid-tail", "hdr-body-dest-pred",
                      "quarters", "tsopt-opc-body-pred",
                      "hdr-r1-r2-rest", "bytes5"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(HuffmanSchemes, BlocksAreByteAligned)
{
    const auto &program = sampleProgram();
    for (const auto &img :
         {schemes::compressByte(program),
          schemes::compressFull(program)}) {
        for (const auto &layout : img.image.blocks)
            EXPECT_EQ(layout.bitOffset % 8, 0u);
    }
}

TEST(HuffmanSchemes, CompressionActuallyCompresses)
{
    const auto &program = sampleProgram();
    const std::size_t base = program.baselineBits();
    EXPECT_LT(schemes::compressFull(program).image.bitSize, base);
    EXPECT_LT(schemes::compressByte(program).image.bitSize, base);
    // Full beats byte (it can exploit whole-op redundancy).
    EXPECT_LT(schemes::compressFull(program).image.bitSize,
              schemes::compressByte(program).image.bitSize);
}

TEST(HuffmanSchemes, MaxCodeLengthRespected)
{
    const auto &program = sampleProgram();
    schemes::HuffmanOptions opts;
    opts.maxCodeLength = 11;
    const auto full = schemes::compressFull(program, opts);
    EXPECT_LE(full.tables[0].maxCodeLength(), 11u);
    const auto byte = schemes::compressByte(program);
    EXPECT_LE(byte.tables[0].maxCodeLength(),
              schemes::kByteMaxCodeLength);
}

TEST(Tailored, RoundTrip)
{
    const auto &program = sampleProgram();
    const auto isa = schemes::TailoredIsa::build(program);
    const auto image = isa.encode(program);
    expectSameOps(isa.decode(image), program);
}

TEST(Tailored, SmallerThanBaselineButUncompressed)
{
    const auto &program = sampleProgram();
    const auto isa = schemes::TailoredIsa::build(program);
    const auto image = isa.encode(program);
    EXPECT_LT(image.bitSize, program.baselineBits());
    // Uncompressed property: every op of the same (type, code) has
    // the same size, so block size is the sum of per-op sizes.
    for (const auto &blk : program.blocks()) {
        unsigned bits = 0;
        for (const auto &mop : blk.mops)
            for (const auto &op : mop.ops())
                bits += isa.opBits(op.opType(), op.opcode());
        EXPECT_EQ(image.blocks[blk.id].bitSize, bits);
    }
}

TEST(Tailored, HeaderIsFixed)
{
    const auto &program = sampleProgram();
    const auto isa = schemes::TailoredIsa::build(program);
    // Header: tail + optype + opcode, identical for every op (§2.3:
    // "fixed position and possibly fixed size... simplifies decoding").
    EXPECT_EQ(isa.headerBits(),
              1 + isa.opTypeWidth() + isa.opcodeWidth());
    EXPECT_LE(isa.opTypeWidth(), 2u);
    EXPECT_LE(isa.opcodeWidth(), 5u);
}

TEST(Tailored, ConstantFieldsVanish)
{
    // A program with one op type, few registers: tailored fields for
    // unused values collapse to zero or tiny widths.
    auto compiled = compiler::compileSource(
        "func main(): int { return 5; }");
    const auto isa = schemes::TailoredIsa::build(compiled.program);
    const auto image = isa.encode(compiled.program);
    // The baseline has 40-bit ops; tailored must be far below.
    EXPECT_LT(double(image.bitSize) /
                  double(compiled.program.baselineBits()),
              0.7);
    // The guard predicate is always p0 in this program: its tailored
    // width must be zero in every used format.
    for (unsigned f = 0; f < tepic::isa::kNumFormats; ++f) {
        const auto &tf = isa.format(tepic::isa::Format(f));
        if (!tf.used)
            continue;
        for (const auto &field : tf.fields) {
            if (field.kind == tepic::isa::FieldKind::kPred) {
                EXPECT_EQ(field.width, 0u);
            }
        }
    }
}

TEST(Tailored, VerilogEmission)
{
    const auto &program = sampleProgram();
    const auto isa = schemes::TailoredIsa::build(program);
    const std::string verilog = isa.emitVerilog("tailored_decoder");
    EXPECT_NE(verilog.find("module tailored_decoder"),
              std::string::npos);
    EXPECT_NE(verilog.find("endmodule"), std::string::npos);
    EXPECT_NE(verilog.find("case ({opt, opc})"), std::string::npos);
    // One case arm per used (type, opcode) pair.
    std::size_t arms = 0;
    std::size_t pos = 0;
    while ((pos = verilog.find(": begin", pos)) != std::string::npos) {
        ++arms;
        pos += 7;
    }
    EXPECT_EQ(arms, isa.distinctOpcodes());
}

TEST(Dictionary, RoundTrip)
{
    const auto &program = sampleProgram();
    const auto img = schemes::compressDictionary(program);
    expectSameOps(schemes::decompressDictionary(img), program);
    EXPECT_GT(img.hitRate(), 0.0);
    EXPECT_LE(img.hitRate(), 1.0);
    for (const auto &layout : img.image.blocks)
        EXPECT_EQ(layout.bitOffset % 8, 0u);
}

TEST(Dictionary, SmallDictionaryStillRoundTrips)
{
    const auto &program = sampleProgram();
    schemes::DictionaryOptions opts;
    opts.entries = 4;
    const auto img = schemes::compressDictionary(program, opts);
    expectSameOps(schemes::decompressDictionary(img), program);
    EXPECT_EQ(img.indexBits, 2u);
    EXPECT_GT(img.escapeOps, 0u);
}

TEST(Dictionary, BiggerDictionaryCompressesBetter)
{
    const auto &program = sampleProgram();
    schemes::DictionaryOptions small;
    small.entries = 16;
    schemes::DictionaryOptions big;
    big.entries = 512;
    const auto s = schemes::compressDictionary(program, small);
    const auto b = schemes::compressDictionary(program, big);
    // More entries -> more hits (monotone, unlike total size: the
    // index also widens).
    EXPECT_GE(b.hitOps, s.hitOps);
    EXPECT_LT(b.image.bitSize, program.baselineBits());
}

TEST(Dictionary, HuffmanFullBeatsDictionary)
{
    // The paper's implicit argument vs CodePack/Liao: entropy coding
    // over the same symbols cannot lose to fixed-index coding.
    const auto &program = sampleProgram();
    const auto dict = schemes::compressDictionary(program);
    const auto full = schemes::compressFull(program);
    EXPECT_LE(full.image.bitSize, dict.image.bitSize);
    EXPECT_GT(schemes::dictionaryDecoderTransistors(dict), 0u);
}

TEST(Tailored, SizeOrderingVsHuffman)
{
    // The paper's Figure 5 ordering: full < tailored < base, with
    // tailored paying no decompression. (Byte/stream fall between
    // full and base; exact order vs tailored is workload dependent.)
    const auto &program = sampleProgram();
    const auto full = schemes::compressFull(program);
    const auto isa = schemes::TailoredIsa::build(program);
    const auto tailored = isa.encode(program);
    EXPECT_LT(full.image.bitSize, tailored.bitSize);
    EXPECT_LT(tailored.bitSize, program.baselineBits());
}

} // namespace
