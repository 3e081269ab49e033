/**
 * @file
 * Huffman-compressed code images over the three alphabets of §2.2:
 * byte-wise, stream-based (configurable cuts) and whole-op ("Full").
 *
 * All three share the same image discipline (§3.3): blocks are the
 * atomic units, each block's first op is byte-aligned, and ops inside
 * a block are packed back-to-back. Decompression is bit-exact; every
 * compressed image can be expanded and compared against the original
 * operation stream (the round-trip is exercised by tests and by the
 * benchmark harness in verify mode).
 */

#ifndef TEPIC_SCHEMES_HUFFMAN_SCHEME_HH
#define TEPIC_SCHEMES_HUFFMAN_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "codec/decoder.hh"
#include "huffman/huffman.hh"
#include "isa/image.hh"
#include "isa/program.hh"
#include "schemes/stream_config.hh"

namespace tepic::schemes {

/** Which alphabet a compressed image was built with. */
enum class HuffmanAlphabet : std::uint8_t { kByte, kStream, kFull };

const char *alphabetName(HuffmanAlphabet alphabet);

/** A compressed image together with its dictionaries. */
struct CompressedImage
{
    HuffmanAlphabet alphabet = HuffmanAlphabet::kByte;
    StreamConfig streamConfig;        ///< kStream only
    isa::Image image;

    /** One table per stream; byte/full use exactly one. */
    std::vector<huffman::CodeTable> tables;

    /**
     * Uncompressed bit width of each table's symbols (the `m` of the
     * decoder cost model): 8 for byte, the stream width for streams,
     * 40 for full ops.
     */
    std::vector<unsigned> symbolBits;
};

struct HuffmanOptions
{
    /** Code-length bound of the stream and full alphabets. */
    unsigned maxCodeLength = 16;
};

/**
 * The byte alphabet's tighter code-length bound: with at most 256
 * dictionary entries a hardware decoder uses a shallower mux tree
 * (this is what makes the byte-wise decoder the smallest of the
 * Huffman options in the paper's Figure 10, at a small cost in
 * compression).
 */
inline constexpr unsigned kByteMaxCodeLength = 12;

/** Build a byte-alphabet compressed image. */
CompressedImage compressByte(const isa::VliwProgram &program);

/** Build a stream-alphabet compressed image with @p config cuts. */
CompressedImage compressStream(const isa::VliwProgram &program,
                               const StreamConfig &config,
                               const HuffmanOptions &options = {});

/** Build a whole-op ("Full") compressed image. */
CompressedImage compressFull(const isa::VliwProgram &program,
                             const HuffmanOptions &options = {});

/**
 * The codec::Decoder over a Huffman-compressed image (any alphabet).
 * This is the single decode implementation for the scheme —
 * decompress() below and everything reached through codec::makeDecoder
 * go through it. The caller keeps @p compressed alive.
 */
std::unique_ptr<codec::Decoder>
makeBlockDecoder(const CompressedImage &compressed);

/**
 * Expand @p compressed back to per-block operation vectors — the
 * software model of the hit-path hardware decompressor. Convenience
 * wrapper over makeBlockDecoder()->decodeAll().
 */
std::vector<std::vector<isa::Operation>>
decompress(const CompressedImage &compressed);

} // namespace tepic::schemes

#endif // TEPIC_SCHEMES_HUFFMAN_SCHEME_HH
