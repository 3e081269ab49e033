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

void
Atb::unlink(std::uint32_t id)
{
    Node &node = nodes_[id];
    if (node.prev != kNil)
        nodes_[node.prev].next = node.next;
    else
        head_ = node.next;
    if (node.next != kNil)
        nodes_[node.next].prev = node.prev;
    else
        tail_ = node.prev;
    node.prev = node.next = kNil;
}

void
Atb::pushFront(std::uint32_t id)
{
    Node &node = nodes_[id];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = id;
    head_ = id;
    if (tail_ == kNil)
        tail_ = id;
}

bool
Atb::access(isa::BlockId block)
{
    TEPIC_ASSERT(block < nodes_.size(),
                 "block id outside the ATT: ", block);
    Node &node = nodes_[block];
    if (node.resident) {
        ++hits_;
        if (head_ != block) {
            unlink(block);
            pushFront(block);
        }
        return true;
    }
    ++misses_;
    if (count_ >= capacity_) {
        const std::uint32_t victim = tail_;
        unlink(victim);
        nodes_[victim].resident = false;
        --count_;
    }
    // Cold predictor: 2-bit counter back to weakly-not-taken, last
    // target primed with the static branch target the compiler stored
    // in the ATT (per-entry state does not survive eviction).
    node.counter = 1;
    node.lastTarget = att_.entry(block).staticTarget;
    node.resident = true;
    pushFront(block);
    ++count_;
    return false;
}

isa::BlockId
Atb::predictNext(isa::BlockId block) const
{
    const Node &node = nodes_[block];
    TEPIC_ASSERT(node.resident,
                 "predictNext on non-resident block ", block);
    const isa::BlockId fall = att_.entry(block).fallthrough;
    if (fall == isa::kNoBlock)
        return node.lastTarget;
    if (direction_.predictTaken(block, node.counter) &&
        node.lastTarget != isa::kNoBlock) {
        return node.lastTarget;
    }
    return fall;
}

void
Atb::update(isa::BlockId block, bool taken, isa::BlockId next)
{
    Node &node = nodes_[block];
    TEPIC_ASSERT(node.resident,
                 "update on non-resident block ", block);
    if (taken) {
        if (node.counter < 3)
            ++node.counter;
        node.lastTarget = next;
    } else {
        if (node.counter > 0)
            --node.counter;
    }
    direction_.update(block, taken);
}

} // namespace tepic::fetch
