/**
 * @file
 * One fully associative LRU stack over L1 line ids that answers the
 * 3C question for several cache capacities at once (the stack
 * algorithm of Mattson et al., IBM Systems Journal, 1970).
 *
 * LRU has the inclusion property: a fully associative LRU cache of C
 * lines holds exactly the C most recently used distinct lines. So one
 * recency list serves every capacity, given a boundary marker after
 * its first C nodes. The distinct capacities c_0 < c_1 < ... < c_{K-1}
 * cut the list into zones: zone k holds the nodes at recency positions
 * [c_{k-1}, c_k) (c_{-1} = 0), each node stores its zone, and a line
 * behind the last boundary leaves the list (its zone is then K). A
 * line is resident in the capacity-c_k cache exactly when its zone is
 * at most k.
 *
 * One touch moves the line to the front; every zone between the front
 * and the line's old zone then overflows by one and hands its last
 * node to the next zone: one move plus at most K marker shifts.
 *
 * It is the 3C classifier of CacheStreamRecorder (cache_stats.hh, one
 * capacity) and of the sweep (core/sweep.cc, every L1 geometry of an
 * access stream). access() probes every line of the block before it
 * touches any (a block's own earlier lines must not satisfy its later
 * ones); the verdict is kFirstTouch if any line was never touched,
 * else the largest zone among its lines. classifyMiss() turns that
 * verdict into one geometry's class.
 */

#ifndef TEPIC_FETCH_LRU_STACK_HH
#define TEPIC_FETCH_LRU_STACK_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace tepic::fetch {

class LruStack
{
  public:
    /** The verdict of an access that touches a never-seen line. */
    static constexpr std::uint32_t kFirstTouch = 0xffffffffu;

    /** @p capacities in lines, each > 0, in any order; duplicates
     *  share one boundary. */
    explicit LruStack(std::vector<std::uint32_t> capacities)
        : capacities_(std::move(capacities))
    {
        TEPIC_ASSERT(!capacities_.empty(), "LRU stack without capacity");
        std::sort(capacities_.begin(), capacities_.end());
        capacities_.erase(
            std::unique(capacities_.begin(), capacities_.end()),
            capacities_.end());
        TEPIC_ASSERT(capacities_.front() > 0, "zero LRU capacity");
        std::uint32_t below = 0;
        for (std::uint32_t capacity : capacities_) {
            limit_.push_back(capacity - below);
            below = capacity;
        }
        count_.assign(capacities_.size(), 0);
        last_.assign(capacities_.size(), kNil);
        zones_ = std::uint32_t(capacities_.size());
    }

    /** The zone index of @p capacity, one of the constructor's. */
    std::uint32_t
    zoneOf(std::uint32_t capacity) const
    {
        const auto it = std::lower_bound(capacities_.begin(),
                                         capacities_.end(), capacity);
        TEPIC_ASSERT(it != capacities_.end() && *it == capacity,
                     "capacity ", capacity, " has no LRU boundary");
        return std::uint32_t(it - capacities_.begin());
    }

    /**
     * Probe the lines [first, last], then touch them in order. Returns
     * kFirstTouch if any was never touched, else the largest zone among
     * them (the zone count when one lies behind every boundary).
     */
    std::uint32_t
    access(std::uint32_t first, std::uint32_t last)
    {
        TEPIC_ASSERT(first <= last, "empty line span");
        if (last >= nodes_.size())
            nodes_.resize(std::size_t(last) + 1);
        std::uint32_t verdict = 0;
        for (std::uint32_t line = first; line <= last; ++line)
            verdict = std::max(verdict, nodes_[line].zone);
        for (std::uint32_t line = first; line <= last; ++line)
            touch(line);
        return verdict;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Node
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t zone = kFirstTouch;  ///< untouched until accessed
    };

    void
    unlink(std::uint32_t line)
    {
        Node &node = nodes_[line];
        if (node.prev != kNil)
            nodes_[node.prev].next = node.next;
        else
            head_ = node.next;
        if (node.next != kNil)
            nodes_[node.next].prev = node.prev;
        node.prev = node.next = kNil;
    }

    void
    touch(std::uint32_t line)
    {
        if (line == head_)
            return;  // already most recent: no zone changes
        Node &node = nodes_[line];
        const std::uint32_t from = node.zone;
        if (from < zones_) {
            if (last_[from] == line)
                last_[from] = node.prev;  // stale once count_[from] is 0
            unlink(line);
        }
        node.zone = 0;
        node.next = head_;
        if (head_ != kNil)
            nodes_[head_].prev = line;
        head_ = line;
        if (from != 0)
            enterZone0(line, from);  // a move within zone 0 changes none
    }

    /**
     * Count @p line into zone 0, out of zone @p from (or from outside
     * the stack), then hand each overflowing zone's last node to the
     * next zone; the cascade stops at the zone the line left. Kept out
     * of line so touch(), whose common case is a move within zone 0,
     * stays small enough to inline.
     */
    [[gnu::noinline]] void
    enterZone0(std::uint32_t line, std::uint32_t from)
    {
        if (from < zones_)
            --count_[from];
        if (count_[0]++ == 0)
            last_[0] = line;
        for (std::uint32_t k = 0; count_[k] > limit_[k]; ++k) {
            const std::uint32_t moved = last_[k];
            last_[k] = nodes_[moved].prev;
            --count_[k];
            if (k + 1 == zones_) {
                unlink(moved);
                nodes_[moved].zone = zones_;
                break;
            }
            nodes_[moved].zone = k + 1;
            if (count_[k + 1]++ == 0)
                last_[k + 1] = moved;
        }
    }

    std::vector<std::uint32_t> capacities_;  ///< distinct, ascending
    std::vector<std::uint32_t> limit_;  ///< lines zone k may hold
    std::vector<std::uint32_t> count_;  ///< lines zone k holds
    std::vector<std::uint32_t> last_;   ///< zone k's least recent line
    std::vector<Node> nodes_;           ///< indexed by line id
    std::uint32_t head_ = kNil;         ///< most recently used line
    std::uint32_t zones_ = 0;           ///< distinct capacities
};

/** The 3C class of one L1 miss (cache_stats.hh). */
enum class MissClass { kCompulsory, kCapacity, kConflict };

/**
 * The class of a miss whose access got @p verdict from
 * LruStack::access(), in the geometry whose capacity has @p zone.
 */
inline MissClass
classifyMiss(std::uint32_t verdict, std::uint32_t zone)
{
    if (verdict == LruStack::kFirstTouch)
        return MissClass::kCompulsory;
    return verdict <= zone ? MissClass::kConflict : MissClass::kCapacity;
}

} // namespace tepic::fetch

#endif // TEPIC_FETCH_LRU_STACK_HH
