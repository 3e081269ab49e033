/**
 * @file
 * The banked instruction cache (§3.4, Figure 8), modelled at line
 * granularity with block-atomic (restricted-placement) fills.
 *
 * The real structure splits storage into two banks whose line size
 * equals the maximum MOP so a MOP spanning two lines is extracted in
 * one reference; for the miss/hit behaviour that the cycle model
 * consumes, what matters is which memory lines are resident. A block
 * access hits only when *all* of its lines are resident (restricted
 * placement: intermediate fetches within a block are not re-checked,
 * so partial residency is unusable); a miss fills every line of the
 * block, evicting LRU ways.
 *
 * Geometry defaults follow §5: 16 KB, 2-way, 32-byte lines for the
 * compressed/tailored images; the Base image uses 40-byte lines (a
 * multiple of the 40-bit op size), making it effectively 20 KB.
 */

#ifndef TEPIC_FETCH_BANKED_CACHE_HH
#define TEPIC_FETCH_BANKED_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace tepic::fetch {

struct CacheConfig
{
    unsigned sets = 256;
    unsigned ways = 2;
    unsigned lineBytes = 32;

    std::size_t
    capacityBytes() const
    {
        return std::size_t(sets) * ways * lineBytes;
    }

    /** §5 geometry for compressed/tailored images (16 KB). */
    static CacheConfig
    paperCompressed()
    {
        return {256, 2, 32};
    }

    /** §5 geometry for the Base image (20 KB effective). */
    static CacheConfig
    paperBase()
    {
        return {256, 2, 40};
    }
};

/** The result of one block access. */
struct CacheAccess
{
    bool hit = false;
    std::uint32_t blockLines = 0;   ///< lines the block spans
    std::uint32_t linesFilled = 0;  ///< lines brought in on a miss
};

/**
 * Line-granularity event sink (cache_stats.hh observability). A hit
 * is a lookup that found the line resident; a fill installs a line
 * on the block-miss path; an eviction reports the victim with the
 * number of re-references it served since its fill (0 = dead on
 * fill). Null observer costs the hot loop one predictable branch
 * per event.
 */
class CacheLineObserver
{
  public:
    virtual ~CacheLineObserver() = default;
    virtual void onLineHit(std::uint64_t lineId,
                           std::uint32_t set) = 0;
    virtual void onLineFill(std::uint64_t lineId,
                            std::uint32_t set) = 0;
    virtual void onLineEvict(std::uint64_t lineId, std::uint32_t set,
                             std::uint64_t uses) = 0;
};

class BankedCache
{
  public:
    explicit BankedCache(const CacheConfig &config)
        : config_(config),
          setMask_(std::has_single_bit(config.sets) ? config.sets - 1
                                                    : 0)
    {
        TEPIC_ASSERT(config.sets > 0 && config.ways > 0 &&
                     config.lineBytes > 0, "bad cache geometry");
        ways_.assign(std::size_t(config.sets) * config.ways, Way{});
    }

    /**
     * Access the byte range [addr, addr+size) as one atomic block.
     * On a miss every line of the block is (re)filled.
     */
    CacheAccess
    accessBlock(std::uint32_t addr, std::uint32_t size)
    {
        TEPIC_ASSERT(size > 0, "zero-size block access");
        const std::uint64_t first = addr / config_.lineBytes;
        const std::uint64_t last =
            (std::uint64_t(addr) + size - 1) / config_.lineBytes;
        CacheAccess result;
        result.blockLines = std::uint32_t(last - first + 1);
        result.hit = accessLines(first, last);
        result.linesFilled = result.hit ? 0 : result.blockLines;
        return result;
    }

    /**
     * accessBlock() over the block's line span [first, last], for
     * callers that computed it once: the set of the first line is
     * derived once and the rest are walked without a division.
     * Returns the hit; a miss fills all last - first + 1 lines.
     */
    bool accessLines(std::uint64_t first, std::uint64_t last);

    /** Attach (or clear, with nullptr) the line-event sink. Purely
     *  observational: replacement decisions never change. */
    void setObserver(CacheLineObserver *observer)
    {
        observer_ = observer;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t linesFilled() const { return linesFilled_; }

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t uses = 0;  ///< re-references since fill
    };

    CacheConfig config_;
    /** sets - 1 when sets is a power of two (then a set is a mask
     *  away), else 0 and sets take a modulo. */
    std::uint32_t setMask_;
    std::vector<Way> ways_;  ///< sets_ x ways_, row-major
    CacheLineObserver *observer_ = nullptr;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t linesFilled_ = 0;

    bool lookupLine(std::uint64_t line_id, std::uint32_t set);
    void fillLine(std::uint64_t line_id, std::uint32_t set);
};

// The per-fetch path, inline so the fetch kernel's compilation unit
// sees through it.

inline bool
BankedCache::lookupLine(std::uint64_t line_id, std::uint32_t set)
{
    Way *base = &ways_[std::size_t(set) * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == line_id) {
            base[w].lastUse = ++clock_;
            ++base[w].uses;
            if (observer_)
                observer_->onLineHit(line_id, set);
            return true;
        }
    }
    return false;
}

inline void
BankedCache::fillLine(std::uint64_t line_id, std::uint32_t set)
{
    Way *base = &ways_[std::size_t(set) * config_.ways];
    // Already resident (possible when refilling a whole block)?
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == line_id) {
            base[w].lastUse = ++clock_;
            return;
        }
    }
    // LRU victim.
    unsigned victim = 0;
    for (unsigned w = 1; w < config_.ways; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (!base[victim].valid)
            break;
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    }
    if (observer_ && base[victim].valid)
        observer_->onLineEvict(base[victim].tag, set, base[victim].uses);
    base[victim].valid = true;
    base[victim].tag = line_id;
    base[victim].lastUse = ++clock_;
    base[victim].uses = 0;
    ++linesFilled_;
    if (observer_)
        observer_->onLineFill(line_id, set);
}

inline bool
BankedCache::accessLines(std::uint64_t first, std::uint64_t last)
{
    const auto first_set = std::uint32_t(
        setMask_ ? first & setMask_ : first % config_.sets);

    bool all_present = true;
    std::uint32_t set = first_set;
    for (std::uint64_t line = first; line <= last; ++line) {
        all_present &= lookupLine(line, set);
        if (++set == config_.sets)
            set = 0;
    }

    if (all_present) {
        ++hits_;
        return true;
    }
    ++misses_;
    // Restricted placement: bring in the whole block.
    set = first_set;
    for (std::uint64_t line = first; line <= last; ++line) {
        fillLine(line, set);
        if (++set == config_.sets)
            set = 0;
    }
    return false;
}

} // namespace tepic::fetch

#endif // TEPIC_FETCH_BANKED_CACHE_HH
