#include "schemes/huffman_scheme.hh"

#include <algorithm>
#include <array>

#include "support/bitstream.hh"
#include "support/logging.hh"

namespace tepic::schemes {

namespace {

using huffman::CodeTable;
using huffman::SymbolHistogram;
using isa::kOpBits;
using isa::Operation;
using isa::VliwProgram;

/** One op's stream symbols: a stream is at least one bit wide. */
using OpSlices = std::array<std::uint64_t, kOpBits>;

/** Slice the 40-bit op into this config's stream symbols (MSB first). */
OpSlices
sliceOp(std::uint64_t bits, const std::vector<unsigned> &widths)
{
    OpSlices out{};
    unsigned shift = kOpBits;
    for (std::size_t s = 0; s < widths.size(); ++s) {
        shift -= widths[s];
        out[s] = (bits >> shift) & ((std::uint64_t(1) << widths[s]) - 1);
    }
    return out;
}

/** The five big-endian bytes of a 40-bit op. */
std::array<std::uint8_t, 5>
opBytes(std::uint64_t bits)
{
    return {std::uint8_t(bits >> 32), std::uint8_t(bits >> 24),
            std::uint8_t(bits >> 16), std::uint8_t(bits >> 8),
            std::uint8_t(bits)};
}

/**
 * Shared image assembly: per block, byte-align then encode each op.
 * The byte-alignment waste is charged to the image's size ledger
 * here; the caller charges the code bits themselves (it knows the
 * payload/overhead split) and then asserts the tiling invariant.
 */
template <typename EncodeOp>
isa::Image
assembleImage(const VliwProgram &program, const std::string &scheme,
              EncodeOp &&encode_op)
{
    support::BitWriter writer;
    isa::Image image;
    image.scheme = scheme;
    image.blocks.resize(program.blocks().size());
    std::uint64_t align_pad = 0;
    for (const auto &blk : program.blocks()) {
        const std::size_t before = writer.bitSize();
        writer.alignToByte();
        align_pad += writer.bitSize() - before;
        isa::BlockLayout &layout = image.blocks[blk.id];
        layout.bitOffset = writer.bitSize();
        layout.numMops = std::uint32_t(blk.mops.size());
        layout.numOps = std::uint32_t(blk.opCount());
        for (const auto &mop : blk.mops)
            for (const auto &op : mop.ops())
                encode_op(op, writer);
        layout.bitSize = writer.bitSize() - layout.bitOffset;
    }
    image.bitSize = writer.bitSize();
    image.bytes = writer.takeBytes();
    image.ledger.addBits("align_pad", align_pad);
    return image;
}

/**
 * Split one codeword into the payload/overhead accounting of the
 * size ledger: up to the symbol's uncompressed width m the code is
 * payload; any excess length (a bounded-Huffman code longer than the
 * raw symbol) is codeword overhead.
 */
struct PayloadSplit
{
    std::uint64_t payload = 0;
    std::uint64_t overhead = 0;

    void
    addCode(unsigned code_length, unsigned symbol_bits)
    {
        payload += std::min(code_length, symbol_bits);
        overhead += code_length > symbol_bits
            ? code_length - symbol_bits : 0;
    }
};

} // namespace

const char *
alphabetName(HuffmanAlphabet alphabet)
{
    switch (alphabet) {
      case HuffmanAlphabet::kByte: return "huff-byte";
      case HuffmanAlphabet::kStream: return "huff-stream";
      case HuffmanAlphabet::kFull: return "huff-full";
    }
    return "?";
}

CompressedImage
compressByte(const VliwProgram &program)
{
    SymbolHistogram hist;
    for (const auto &blk : program.blocks())
        for (const auto &mop : blk.mops)
            for (const auto &op : mop.ops())
                for (auto byte : opBytes(op.encode()))
                    hist.add(byte);

    CompressedImage out;
    out.alphabet = HuffmanAlphabet::kByte;
    out.tables.push_back(CodeTable::build(hist, kByteMaxCodeLength));
    out.symbolBits.push_back(8);
    const CodeTable &table = out.tables.front();
    PayloadSplit split;
    out.image = assembleImage(
        program, "huff-byte",
        [&](const Operation &op, support::BitWriter &writer) {
            for (auto byte : opBytes(op.encode()))
                split.addCode(table.encode(byte, writer), 8);
        });
    out.image.ledger.addBits("code/payload", split.payload);
    out.image.ledger.addBits("code/overhead", split.overhead);
    out.image.ledger.assertTiles(out.image.bitSize, "huff-byte");
    return out;
}

CompressedImage
compressStream(const VliwProgram &program, const StreamConfig &config,
               const HuffmanOptions &options)
{
    unsigned total = 0;
    for (unsigned w : config.widths)
        total += w;
    TEPIC_ASSERT(total == kOpBits, "stream config '", config.name,
                 "' widths sum to ", total);
    TEPIC_ASSERT(config.widths.size() <= kOpBits, "stream config '",
                 config.name, "' has ", config.widths.size(),
                 " streams");

    std::vector<SymbolHistogram> hists(config.streamCount());
    for (const auto &blk : program.blocks()) {
        for (const auto &mop : blk.mops) {
            for (const auto &op : mop.ops()) {
                const auto symbols =
                    sliceOp(op.encode(), config.widths);
                for (std::size_t s = 0; s < hists.size(); ++s)
                    hists[s].add(symbols[s]);
            }
        }
    }

    CompressedImage out;
    out.alphabet = HuffmanAlphabet::kStream;
    out.streamConfig = config;
    for (std::size_t s = 0; s < hists.size(); ++s) {
        out.tables.push_back(
            CodeTable::build(hists[s], options.maxCodeLength));
        out.symbolBits.push_back(config.widths[s]);
    }
    // One payload/overhead split per stream: each stream is a fixed
    // slice of the instruction word, so this is the per-field
    // attribution of the stream alphabet.
    std::vector<PayloadSplit> splits(config.streamCount());
    out.image = assembleImage(
        program, "huff-stream:" + config.name,
        [&](const Operation &op, support::BitWriter &writer) {
            const auto symbols = sliceOp(op.encode(), config.widths);
            for (std::size_t s = 0; s < splits.size(); ++s) {
                splits[s].addCode(
                    out.tables[s].encode(symbols[s], writer),
                    config.widths[s]);
            }
        });
    unsigned bit_pos = 0;
    for (std::size_t s = 0; s < splits.size(); ++s) {
        // Name each stream by its index and slice, e.g. "s0_b0_w9":
        // stream 0 covering bits [0, 9) of the op, MSB-first.
        const std::string leaf = "stream/s" + std::to_string(s) +
            "_b" + std::to_string(bit_pos) + "_w" +
            std::to_string(config.widths[s]);
        out.image.ledger.addBits(leaf + "/payload",
                                 splits[s].payload);
        out.image.ledger.addBits(leaf + "/overhead",
                                 splits[s].overhead);
        bit_pos += config.widths[s];
    }
    out.image.ledger.assertTiles(out.image.bitSize,
                                 out.image.scheme);
    return out;
}

CompressedImage
compressFull(const VliwProgram &program, const HuffmanOptions &options)
{
    SymbolHistogram hist;
    for (const auto &blk : program.blocks())
        for (const auto &mop : blk.mops)
            for (const auto &op : mop.ops())
                hist.add(op.encode());

    CompressedImage out;
    out.alphabet = HuffmanAlphabet::kFull;
    out.tables.push_back(CodeTable::build(hist, options.maxCodeLength));
    out.symbolBits.push_back(kOpBits);
    const CodeTable &table = out.tables.front();
    PayloadSplit split;
    out.image = assembleImage(
        program, "huff-full",
        [&](const Operation &op, support::BitWriter &writer) {
            split.addCode(table.encode(op.encode(), writer),
                          unsigned(kOpBits));
        });
    out.image.ledger.addBits("code/payload", split.payload);
    out.image.ledger.addBits("code/overhead", split.overhead);
    out.image.ledger.assertTiles(out.image.bitSize, "huff-full");
    return out;
}

namespace {

/** codec::Decoder over a Huffman image: the one decode path. */
class HuffmanBlockDecoder final : public codec::Decoder
{
  public:
    explicit HuffmanBlockDecoder(const CompressedImage &compressed)
        : compressed_(&compressed),
          fingerprint_(codec::imageFingerprint(compressed.image))
    {
    }

    const char *
    name() const override
    {
        return alphabetName(compressed_->alphabet);
    }

    std::size_t
    blockCount() const override
    {
        return compressed_->image.blocks.size();
    }

    std::uint64_t fingerprint() const override { return fingerprint_; }

    void
    decodeBlockInto(isa::BlockId id,
                    std::vector<Operation> &ops) const override
    {
        const isa::Image &image = compressed_->image;
        const isa::BlockLayout &layout = image.blocks.at(id);
        support::BitReader reader(image.bytes.data(), image.bitSize);
        reader.seek(layout.bitOffset);
        ops.clear();
        ops.reserve(layout.numOps);
        for (std::uint32_t i = 0; i < layout.numOps; ++i) {
            std::uint64_t bits = 0;
            switch (compressed_->alphabet) {
              case HuffmanAlphabet::kByte:
                for (int b = 0; b < 5; ++b) {
                    bits = (bits << 8) |
                           compressed_->tables[0].decode(reader);
                }
                break;
              case HuffmanAlphabet::kStream:
                for (std::size_t s = 0;
                     s < compressed_->tables.size(); ++s) {
                    const unsigned w =
                        compressed_->streamConfig.widths[s];
                    bits = (bits << w) |
                           compressed_->tables[s].decode(reader);
                }
                break;
              case HuffmanAlphabet::kFull:
                bits = compressed_->tables[0].decode(reader);
                break;
            }
            ops.push_back(Operation::decode(bits));
        }
    }

  private:
    const CompressedImage *compressed_;
    std::uint64_t fingerprint_;
};

} // namespace

std::unique_ptr<codec::Decoder>
makeBlockDecoder(const CompressedImage &compressed)
{
    return std::make_unique<HuffmanBlockDecoder>(compressed);
}

std::vector<std::vector<Operation>>
decompress(const CompressedImage &compressed)
{
    return HuffmanBlockDecoder(compressed).decodeAll();
}

} // namespace tepic::schemes
