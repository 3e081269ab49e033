/**
 * @file
 * Address Translation Table (ATT) and Address Translation Buffer
 * (ATB) — §3.3 of the paper.
 *
 * The ATT is the compiler-generated, ROM-resident table with one entry
 * per atomic block: where the block starts in the encoded image, how
 * many memory lines must be fetched to get all of it, how many
 * MOPs/ops it contains, and next-PC information. The ATB is the small
 * on-chip buffer that caches ATT entries and carries the per-block
 * branch predictor: a 2-bit saturating counter [13] plus a last-target
 * register (taken -> last target, not taken -> fallthrough).
 */

#ifndef TEPIC_FETCH_ATT_HH
#define TEPIC_FETCH_ATT_HH

#include <cstdint>
#include <vector>

#include "fetch/predictor.hh"
#include "isa/image.hh"
#include "isa/program.hh"
#include "support/logging.hh"
#include "support/size_ledger.hh"

namespace tepic::fetch {

/** One ATT entry (the compiler-side, ROM-resident form). */
struct AttEntry
{
    std::uint32_t byteAddress = 0;  ///< block start in the image
    std::uint32_t byteSize = 0;     ///< encoded size, bytes
    std::uint32_t numMops = 0;
    std::uint32_t numOps = 0;
    isa::BlockId fallthrough = isa::kNoBlock;
    isa::BlockId staticTarget = isa::kNoBlock;
};

struct FetchUnits;

/** The whole static table plus its ROM size model. */
class Att
{
  public:
    /**
     * Build from an encoded image and the program's CFG metadata.
     * Entries are indexed by block id. Under a fetch-unit partition
     * (superblock.hh) the table holds one entry per unit: a head's
     * entry spans the whole unit (the head's address, the bytes up to
     * the tail's end, the summed MOP/op counts, the tail's next-PC
     * fields) and member blocks' slots stay empty.
     */
    static Att build(const isa::Image &image,
                     const isa::VliwProgram &program,
                     const FetchUnits *units = nullptr);

    const std::vector<AttEntry> &entries() const { return entries_; }
    const AttEntry &entry(isa::BlockId id) const { return entries_[id]; }

    /**
     * ROM bits of one entry: compressed-image byte address, line
     * count, MOP count, and a 16-bit next-PC field. This is the
     * "+15.5%" component of Figure 7.
     */
    unsigned entryBits() const { return entryBits_; }

    /** Total ATT ROM size in bits. */
    std::uint64_t
    totalBits() const
    {
        return std::uint64_t(entryBits_) * rows_;
    }

    /** ATT overhead relative to an image's code bits. */
    double
    overheadVs(std::uint64_t code_bits) const
    {
        return double(totalBits()) / double(code_bits);
    }

    /**
     * Size provenance for the ATT ROM: per-entry metadata components
     * (image byte address, line count, MOP count, next-PC), each
     * summed over all entries. Leaves tile totalBits() exactly.
     */
    const support::SizeLedger &ledger() const { return ledger_; }

  private:
    std::vector<AttEntry> entries_;
    std::uint64_t rows_ = 0;  ///< ROM entries: one per block or unit
    unsigned entryBits_ = 0;
    support::SizeLedger ledger_;
};

/**
 * The runtime ATB: fully associative, LRU, with per-entry branch
 * prediction state. The paper couples the branch prediction table with
 * the ATB (one predictor per block entry, §3.4). Per-entry predictor
 * state is lost on eviction and re-primed from the ATT's static
 * target on re-insertion, as in the paper.
 *
 * Host representation: one flat node vector indexed by block id (the
 * static block count is known from the ATT) carrying residency, the
 * predictor state and intrusive LRU links — the fetch simulator's
 * hottest structure, accessed once per dynamic block.
 */
class Atb
{
  public:
    explicit Atb(const Att &att, unsigned entries = 64,
                 const PredictorConfig &predictor = {})
        : att_(att), capacity_(entries), direction_(predictor),
          nodes_(att.entries().size()) {}

    /** Look up @p block; true on hit. Misses insert (LRU evict). */
    bool access(isa::BlockId block);

    /**
     * Predict the block that follows @p block: direction from the
     * configured predictor (per-entry 2-bit counter by default, §3.4;
     * gshare/PAs optionally); taken -> last recorded target, else the
     * static fallthrough. Blocks without a fallthrough predict the
     * last target regardless.
     */
    isa::BlockId predictNext(isa::BlockId block) const;

    /** Train the predictor with the observed outcome. */
    void update(isa::BlockId block, bool taken, isa::BlockId next);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Residency, predictor state and LRU links for one block id. */
    struct Node
    {
        std::uint8_t counter = 1;  ///< 2-bit saturating, weakly n-t
        bool resident = false;
        isa::BlockId lastTarget = isa::kNoBlock;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    void unlink(std::uint32_t id);
    void pushFront(std::uint32_t id);

    const Att &att_;
    unsigned capacity_;
    DirectionPredictor direction_;
    std::vector<Node> nodes_;      ///< indexed by block id
    std::uint32_t head_ = kNil;    ///< most recently used
    std::uint32_t tail_ = kNil;    ///< least recently used
    unsigned count_ = 0;           ///< resident entries
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

// The per-fetch path, inline so the fetch kernel's compilation unit
// sees through it.

inline void
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

inline void
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

inline bool
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

inline isa::BlockId
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

inline void
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

#endif // TEPIC_FETCH_ATT_HH
