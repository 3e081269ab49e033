#include "fetch/att.hh"

#include "fetch/superblock.hh"
#include "support/logging.hh"

namespace tepic::fetch {

Att
Att::build(const isa::Image &image, const isa::VliwProgram &program,
           const FetchUnits *units)
{
    TEPIC_ASSERT(image.blocks.size() == program.blocks().size(),
                 "image/program block count mismatch");
    TEPIC_ASSERT(!units || units->headOf.size() == image.blocks.size(),
                 "unit/program block count mismatch");
    Att att;
    att.entries_.resize(image.blocks.size());
    for (const auto &blk : program.blocks()) {
        if (units && !units->isHead(blk.id))
            continue;
        const isa::BlockId tail =
            blk.id + (units ? units->lengthOf[blk.id] : 1) - 1;
        const isa::BlockLayout &tail_layout = image.blocks[tail];
        AttEntry &entry = att.entries_[blk.id];
        entry.byteAddress =
            std::uint32_t(image.blocks[blk.id].bitOffset / 8);
        entry.byteSize = std::uint32_t(
            (tail_layout.bitOffset + tail_layout.bitSize + 7) / 8 -
            entry.byteAddress);
        for (isa::BlockId b = blk.id; b <= tail; ++b) {
            entry.numMops += image.blocks[b].numMops;
            entry.numOps += image.blocks[b].numOps;
        }
        entry.fallthrough = program.block(tail).fallthrough;
        entry.staticTarget = program.block(tail).branchTarget;
        ++att.rows_;
    }

    // Entry size model: image byte address + line count (6b) + MOP
    // count (6b) + next-PC info (16b block id).
    unsigned addr_bits = 1;
    while ((std::uint64_t(1) << addr_bits) < image.codeBytes())
        ++addr_bits;
    att.entryBits_ = addr_bits + 6 + 6 + 16;

    const auto entries = att.rows_;
    att.ledger_.addBits("entry/addr", entries * addr_bits);
    att.ledger_.addBits("entry/line_count", entries * 6);
    att.ledger_.addBits("entry/mop_count", entries * 6);
    att.ledger_.addBits("entry/next_pc", entries * 16);
    att.ledger_.assertTiles(att.totalBits(), "att");
    return att;
}

} // namespace tepic::fetch
