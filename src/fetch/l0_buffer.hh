/**
 * @file
 * The L0 decompression buffer (§4): a small fully-associative store of
 * recently decompressed blocks, 32 op entries (160 bytes) by default.
 * It is accessed in parallel with (and has priority over) the L1, so
 * a buffer hit bypasses both the decompressor and the L1 entirely.
 * Tight DSP-style loops fit completely and run at uncompressed speed.
 *
 * Host representation: block ids are small dense integers (they index
 * the ATT), so residency and the LRU chain live in one flat vector of
 * nodes indexed by block id — an intrusive doubly-linked list instead
 * of the unordered_map + std::list pair this replaced. Semantics
 * (hit/miss decisions, eviction order, resident-op accounting) are
 * identical; only the host cost per access changed. This sits on the
 * compressed scheme's per-event path, which fig14's PROF report
 * measures as throughput fetch.compressed.blocks_per_sec.
 */

#ifndef TEPIC_FETCH_L0_BUFFER_HH
#define TEPIC_FETCH_L0_BUFFER_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace tepic::fetch {

class L0Buffer
{
  public:
    explicit L0Buffer(unsigned capacity_ops = 32)
        : capacity_(capacity_ops) {}

    /**
     * Access @p block holding @p ops decompressed ops. Returns true
     * on hit; on a miss the block is inserted (blocks larger than the
     * whole buffer are never cached).
     */
    bool access(isa::BlockId block, std::uint32_t ops);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Decompressed ops currently resident (≤ capacity). */
    unsigned residentOps() const { return used_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Residency + LRU links for one block id. */
    struct Node
    {
        std::uint32_t ops = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        bool resident = false;
    };

    void unlink(std::uint32_t id);
    void pushFront(std::uint32_t id);

    unsigned capacity_;
    unsigned used_ = 0;
    std::vector<Node> nodes_;      ///< indexed by block id
    std::uint32_t head_ = kNil;    ///< most recently used
    std::uint32_t tail_ = kNil;    ///< least recently used
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

// The per-fetch path, inline so the fetch kernel's compilation unit
// sees through it.

inline void
L0Buffer::unlink(std::uint32_t id)
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

inline void
L0Buffer::pushFront(std::uint32_t id)
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

inline bool
L0Buffer::access(isa::BlockId block, std::uint32_t ops)
{
    if (block >= nodes_.size())
        nodes_.resize(std::size_t(block) + 1);
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
    if (ops > capacity_)
        return false;  // can never fit; bypass
    while (used_ + ops > capacity_) {
        const std::uint32_t victim = tail_;
        unlink(victim);
        used_ -= nodes_[victim].ops;
        nodes_[victim].resident = false;
    }
    node.ops = ops;
    node.resident = true;
    pushFront(block);
    used_ += ops;
    return false;
}

} // namespace tepic::fetch

#endif // TEPIC_FETCH_L0_BUFFER_HH
