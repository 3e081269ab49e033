/**
 * @file
 * Encoded program images and per-block layout metadata.
 *
 * An Image is the ROM contents for one encoding scheme (baseline,
 * Huffman-compressed or tailored) plus the per-block index that the
 * compiler emits alongside it. The per-block index is exactly the
 * information that the Address Translation Table needs (§3.3): where
 * each atomic block starts in this image, how big it is, and how many
 * MOPs/ops it contains. Block starts are byte aligned, matching the
 * paper's ROM-access constraint.
 */

#ifndef TEPIC_ISA_IMAGE_HH
#define TEPIC_ISA_IMAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/size_ledger.hh"

namespace tepic::isa {

/** Location and shape of one block within an encoded image. */
struct BlockLayout
{
    std::size_t bitOffset = 0; ///< first bit (multiple of 8; §3.3)
    std::size_t bitSize = 0;   ///< encoded bits, excluding alignment pad
    std::uint32_t numMops = 0;
    std::uint32_t numOps = 0;
};

/** A complete encoded code segment. */
struct Image
{
    std::string scheme;               ///< e.g. "base", "huff-full"
    std::vector<std::uint8_t> bytes;  ///< packed code segment
    std::size_t bitSize = 0;          ///< total bits incl. alignment pads
    std::vector<BlockLayout> blocks;  ///< indexed by BlockId

    /**
     * Size provenance: every encoder charges each emitted bit to a
     * ledger leaf, and the leaves tile bitSize exactly (asserted at
     * build time). See support/size_ledger.hh for the contract.
     */
    support::SizeLedger ledger;

    std::size_t codeBytes() const { return (bitSize + 7) / 8; }
};

} // namespace tepic::isa

#endif // TEPIC_ISA_IMAGE_HH
