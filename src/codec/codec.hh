/**
 * @file
 * Decoder factories and shape descriptions for every scheme.
 *
 * codec/decoder.hh defines the interface; this header is where
 * consumers obtain concrete decoders without including (or caring
 * about) per-scheme internals. makeDecoder(SchemeClass, ...) is the
 * fetch-side entry point: given the artifacts of one of the three
 * study organisations it returns the matching decoder. The per-image
 * overloads cover the remaining alphabets (byte, stream, dictionary)
 * for round-trip verification.
 */

#ifndef TEPIC_CODEC_CODEC_HH
#define TEPIC_CODEC_CODEC_HH

#include <memory>

#include "codec/decoder.hh"
#include "fetch/cycle_model.hh"
#include "schemes/dictionary.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/tailored.hh"

namespace tepic::codec {

/** Decoder over the baseline 40-bit image. */
std::unique_ptr<Decoder> makeBaseDecoder(const isa::Image &image);

/** Decoder over a Huffman image (byte, stream or full alphabet). */
std::unique_ptr<Decoder>
makeDecoder(const schemes::CompressedImage &compressed);

/** Decoder over a tailored image (needs the PLA programming too). */
std::unique_ptr<Decoder>
makeDecoder(const schemes::TailoredIsa &isa, const isa::Image &image);

/** Decoder over a dictionary image. */
std::unique_ptr<Decoder>
makeDecoder(const schemes::DictionaryImage &compressed);

/**
 * Everything the three fetch organisations can decode from. Fill in
 * the members the scheme class needs; makeDecoder checks at runtime:
 *  - kBase needs baseImage;
 *  - kCompressed needs compressedImage (the full-op alphabet in the
 *    study, but any alphabet works);
 *  - kTailored needs tailoredIsa + tailoredImage.
 */
struct DecoderSources
{
    const isa::Image *baseImage = nullptr;
    const schemes::CompressedImage *compressedImage = nullptr;
    const schemes::TailoredIsa *tailoredIsa = nullptr;
    const isa::Image *tailoredImage = nullptr;
};

/** Dispatch on the fetch organisation. Fatal if a source is missing. */
std::unique_ptr<Decoder>
makeDecoder(fetch::SchemeClass scheme, const DecoderSources &sources);

/**
 * The dictionary shape behind a Huffman image — the (n, k, m) of the
 * §3.5 decoder cost model, aggregated over the image's tables. This
 * is the decode-side metadata reports need without touching the
 * tables themselves.
 */
struct DictionaryShape
{
    std::size_t tables = 0;       ///< number of code tables
    unsigned maxCodeLength = 0;   ///< max n over tables
    std::size_t entries = 0;      ///< total k over tables
    unsigned maxSymbolBits = 0;   ///< max m over tables
};

DictionaryShape describeShape(const schemes::CompressedImage &compressed);

/**
 * Decode-checksum kernels (bench/microbench.cc): run the
 * production LUT decoder / the reference canonical walk over @p count
 * symbols of a stream produced by the matching encoder, folding the
 * symbols into a checksum. The two must agree bit-exactly — the
 * micro.huffman.decode_checksum sentinel counter is built on this.
 */
std::uint64_t decodeChecksum(const huffman::CodeTable &table,
                             support::BitReader &reader,
                             std::size_t count);
std::uint64_t decodeChecksumReference(const huffman::CodeTable &table,
                                      support::BitReader &reader,
                                      std::size_t count);

} // namespace tepic::codec

#endif // TEPIC_CODEC_CODEC_HH
