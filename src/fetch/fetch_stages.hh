/**
 * @file
 * The three stages of one fetch, header-inline so that both the fused
 * kernel (fetch::simulateFetch) and the factored design-space sweep
 * (core/sweep.hh) compile them into their own loops.
 *
 * The per-fetch state of the fetch simulator splits into two
 * independent machines and a pure function of their outputs:
 *
 *  - ControlStage: the ATB and its coupled branch predictor. They
 *    yield `atbHit` and `predictionCorrect` per fetch and depend only
 *    on (trace, fetch units, ATB entries, predictor): the ATB is keyed
 *    by block id and primed from the program's CFG, so the scheme, the
 *    L1 and the L0 never reach it.
 *  - accessMemory(): the L0 buffer, then the banked L1. They yield
 *    `l0Hit` and `l1Hit` and depend only on (image, sets, ways, line
 *    bytes, L0 ops). The 3C split (cache_stats.hh) is a property of
 *    this stage alone.
 *  - CostStage: cycles, the four stall causes, `l0SavedCycles`, the
 *    hit/miss counters and the bus traffic, all functions of the two
 *    stages' bits plus the fetch's n_mops / n_ops / n_lines
 *    (cycle_model.hh). foldCost() is the same stage summed over a
 *    whole run from counts of those bits, which is what lets the sweep
 *    simulate each distinct control and memory stream once.
 *
 * simulateFetch() is the per-fetch composition control → memory →
 * cost, with the hot recorder after the cost stage. The memory stage
 * needs nothing from the other two, so it is one walk on its own
 * thread (fetch_sim.cc) over the simulation's only L0 and L1, handing
 * each outcome over through a MemoryStream. A recorded simulation runs
 * three threads: the walk also carries the CACHE record's L0/L1 half,
 * and a second reader of the stream its reuse and 3C half
 * (cache_stats.hh). FetchTable holds what every stage reads per head.
 * The per-fetch entry points are always_inline (left to its own
 * heuristics the compiler calls the cost stage out of line), and the
 * stages read the simulation's FetchConfig and borrow the L1, the L0
 * and the bus rather than copy or own them: each copied value or
 * co-owned structure is one more thing the fused loop keeps live or
 * reloads, and measurably slows it. For the same reason the cost
 * stage's bus traffic is its own call, made early in the fetch.
 */

#ifndef TEPIC_FETCH_FETCH_STAGES_HH
#define TEPIC_FETCH_FETCH_STAGES_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fetch/att.hh"
#include "fetch/banked_cache.hh"
#include "fetch/cycle_model.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/l0_buffer.hh"
#include "fetch/superblock.hh"
#include "isa/image.hh"
#include "power/bitflips.hh"
#include "sim/emulator.hh"
#include "support/logging.hh"

namespace tepic::fetch {

/**
 * Everything a fetch needs that depends only on (image, ATT entry, L1
 * geometry), computed once per simulation: each entry's L1 line span,
 * and its two bus transfers — the miss fill and the ATT upload —
 * folded into bursts on first use and replayed after. Folding is
 * exact: a miss refills every line of the entry, so its fill always
 * moves the same bytes, and an upload is a fixed pattern per head.
 * The bus is kBusWidthBytes wide, so every transfer folds.
 */
class FetchTable
{
  public:
    struct Lines
    {
        std::uint32_t first = 0;
        std::uint32_t last = 0;

        std::uint32_t count() const { return last - first + 1; }
    };

    FetchTable(const Att &att, const isa::Image &image,
               unsigned line_bytes)
        : att_(att), image_(image), lineBytes_(line_bytes),
          lines_(att.entries().size()), traffic_(lines_.size()),
          upload_((att.entryBits() + 7) / 8)
    {
        for (std::size_t id = 0; id < lines_.size(); ++id) {
            const AttEntry &entry = att.entries()[id];
            if (entry.numMops == 0)
                continue;  // not fetchable: a unit member's slot
            TEPIC_ASSERT(entry.byteSize > 0, "zero-size block access");
            lines_[id].first = entry.byteAddress / line_bytes;
            lines_[id].last = std::uint32_t(
                (std::uint64_t(entry.byteAddress) + entry.byteSize -
                 1) / line_bytes);
        }
    }

    const Att &att() const { return att_; }
    const Lines &lines(isa::BlockId head) const { return lines_[head]; }
    /** Every entry's span, indexed by block id. */
    std::span<const Lines> lines() const { return lines_; }

    /** A miss's traffic: the entry's lines from its first byte,
     *  clipped to the image. */
    void
    sendFill(isa::BlockId head, power::BusModel &bus)
    {
        send(bus, traffic_[head].fill, [&] {
            const Lines &l = lines_[head];
            const std::size_t begin = att_.entry(head).byteAddress;
            const std::size_t end = std::min<std::size_t>(
                begin + std::size_t(l.count()) * lineBytes_,
                image_.bytes.size());
            return begin < end
                ? std::span<const std::uint8_t>(
                      image_.bytes.data() + begin, end - begin)
                : std::span<const std::uint8_t>();
        });
    }

    /** An ATB miss's traffic: the ATT entry, as a fixed per-head
     *  fill pattern. */
    void
    sendUpload(isa::BlockId head, power::BusModel &bus)
    {
        send(bus, traffic_[head].upload, [&] {
            std::fill(upload_.begin(), upload_.end(),
                      std::uint8_t(0xa5 ^ (head & 0xff)));
            return std::span<const std::uint8_t>(upload_);
        });
    }

  private:
    struct Traffic
    {
        std::optional<power::Burst> fill;
        std::optional<power::Burst> upload;
    };

    template <typename Bytes>
    static void
    send(power::BusModel &bus, std::optional<power::Burst> &burst,
         Bytes bytes)
    {
        if (!burst)
            burst = bus.fold(bytes());
        bus.send(*burst);
    }

    const Att &att_;
    const isa::Image &image_;
    unsigned lineBytes_;
    std::vector<Lines> lines_;       ///< indexed by block id
    std::vector<Traffic> traffic_;   ///< indexed by block id
    std::vector<std::uint8_t> upload_;  ///< scratch ATT-entry bytes
};

/** Where one fetch leaves the trace. */
struct UnitWalk
{
    std::size_t last = 0;   ///< trace position of the last block walked
    bool sideExit = false;  ///< left before the unit's tail
};

/**
 * Walk the fetch that enters the trace at @p first: the fetch streams
 * on while the trace follows the unit's fallthrough chain, and leaving
 * before the tail is a side exit. Under the identity partition
 * (@p units null) the walk is the head alone.
 */
[[gnu::always_inline]] inline UnitWalk
walkUnit(sim::TraceView events, std::size_t first,
         const FetchUnits *units)
{
    if (!units)
        return {first, false};
    const isa::BlockId head = events.block(first);
    TEPIC_ASSERT(units->isHead(head),
                 "entered a fetch unit off its head (side "
                 "entrance?) at block ", head);
    const isa::BlockId tail = head + units->lengthOf[head] - 1;
    std::size_t last = first;
    while (events.block(last) != tail && last + 1 < events.size() &&
           events.block(last + 1) == events.block(last) + 1)
        ++last;
    return {last, events.block(last) != tail};
}

/** The control stage's verdict on one fetch. */
struct ControlOutcome
{
    bool atbHit = true;
    bool predictionCorrect = true;
};

/** The ATB with its coupled predictor (§3.4), one fetch at a time. */
class ControlStage
{
  public:
    ControlStage(const Att &att, unsigned atb_entries,
                 const PredictorConfig &predictor)
        : atb_(att, atb_entries, predictor) {}

    /**
     * The fetch of @p head begins: the ATB lookup (a miss inserts the
     * translation) and whether the previous fetch's prediction named
     * this head.
     */
    [[gnu::always_inline]] ControlOutcome
    enter(isa::BlockId head)
    {
        return {atb_.access(head), nextCorrect_};
    }

    /**
     * The fetch of @p head left through @p exit: predict the follower,
     * then train with the actual outcome. A side exit breaks the
     * streaming assumption — nothing predicted the follower — so it is
     * charged as a mispredict. Returns whether the follower was
     * predicted correctly.
     */
    [[gnu::always_inline]] bool
    leave(isa::BlockId head, sim::TraceEvent exit, bool side_exit)
    {
        nextCorrect_ = !side_exit && atb_.predictNext(head) == exit.next;
        atb_.update(head, exit.branchTaken, exit.next);
        return nextCorrect_;
    }

    const Atb &atb() const { return atb_; }

  private:
    Atb atb_;
    /** The very first fetch counts as predicted: cold start is charged
     *  to neither scheme. */
    bool nextCorrect_ = true;
};

/** The memory stage's verdict on one fetch. */
struct MemoryOutcome
{
    bool l0Hit = false;  ///< always false without an L0 buffer
    bool l1Hit = true;   ///< true on an L0 hit: the L1 was not asked
};

/**
 * The memory stage: fetch @p head (@p ops decompressed ops over L1
 * @p lines) from the L0 buffer (compressed scheme only), then the
 * banked L1. An L0 hit skips the L1 entirely — the buffer has priority
 * and already holds the whole decompressed unit; an L1 miss fills
 * every line of the unit. Its state is the two structures, which the
 * caller owns.
 */
[[gnu::always_inline]] inline MemoryOutcome
accessMemory(const FetchConfig &config, L0Buffer &l0, BankedCache &l1,
             isa::BlockId head, std::uint32_t ops,
             const FetchTable::Lines &lines)
{
    MemoryOutcome out;
    if (config.scheme == SchemeClass::kCompressed)
        out.l0Hit = l0.access(head, ops);
    if (!out.l0Hit)
        out.l1Hit = l1.accessLines(lines.first, lines.last);
    return out;
}

/**
 * The memory stage's outcome of every fetch of one simulation, handed
 * from the memory walk to its readers on other threads: the kernel,
 * and the CACHE record's stream reader. The walk writes each outcome
 * at the trace position the fetch enters at, and publishes how far it
 * has written (release order) every kChunk fetches and at its end; a
 * reader acquires that index and waits only when it has caught up
 * with it. The walk never waits on a reader.
 */
class MemoryStream
{
  public:
    /** Fetches the walk writes between two publications. */
    static constexpr std::size_t kChunk = 8192;
    /** Published instead of an index when the walk throws. */
    static constexpr std::size_t kFailed = SIZE_MAX;

    explicit MemoryStream(std::size_t events) : outcomes_(events) {}
    // The walk's thread holds its address.
    MemoryStream(const MemoryStream &) = delete;
    MemoryStream &operator=(const MemoryStream &) = delete;

    /** Walk side: the outcome slots, one per trace position. A raw
     *  pointer, so the walk keeps it in a register across the
     *  recorder's calls (reloading it per fetch costs ~2 % of a
     *  recorded walk). */
    std::uint8_t *outcomes() { return outcomes_.data(); }

    /** Walk side: the outcome of the fetch entering at @p index. */
    [[gnu::always_inline]] static void
    put(std::uint8_t *outcomes, std::size_t index, MemoryOutcome out)
    {
        outcomes[index] = std::uint8_t(out.l0Hit | out.l1Hit << 1);
    }

    /** Walk side: every fetch entering before @p end is written, or
     *  (kFailed) the walk stopped on an exception. Wakes every reader. */
    void
    publish(std::size_t end)
    {
        ready_.store(end, std::memory_order_release);
        ready_.notify_all();
    }

    /** Reader side: wait until the fetch entering at @p index is
     *  published; returns the published index (kFailed if the walk
     *  threw). */
    std::size_t
    await(std::size_t index) const
    {
        std::size_t ready = ready_.load(std::memory_order_acquire);
        while (ready <= index) {
            ready_.wait(ready, std::memory_order_acquire);
            ready = ready_.load(std::memory_order_acquire);
        }
        return ready;
    }

    /** Reader side: a published outcome. */
    [[gnu::always_inline]] MemoryOutcome
    at(std::size_t index) const
    {
        const std::uint8_t bits = outcomes_[index];
        return {bool(bits & 1), bool(bits & 2)};
    }

  private:
    /** l0Hit | l1Hit << 1, by trace position. */
    std::vector<std::uint8_t> outcomes_;
    /** On a cache line of its own: the stream lives on the kernel's
     *  stack, beside locals the kernel writes every fetch. */
    alignas(64) std::atomic<std::size_t> ready_{0};
};

/** What one fetch delivers: the shape the cost stage charges. */
struct FetchShape
{
    std::uint32_t mops = 0;
    std::uint32_t ops = 0;
    std::uint32_t lines = 0;   ///< n_lines of the L1 request
    std::uint32_t blocks = 1;  ///< trace events walked
};

/**
 * The cycle model, the counters and the bus, one fetch at a time:
 * transfer() then charge() per fetch.
 */
class CostStage
{
  public:
    CostStage(const FetchConfig &config, FetchTable &table,
              power::BusModel &bus)
        : config_(config), table_(table), bus_(bus) {}

    /**
     * The bus traffic of the fetch of @p head: the ATT entry on an ATB
     * miss, then the unit's lines on an L1 miss. Separate from
     * charge() so the fused loop makes these out-of-line calls right
     * after the memory stage, while few values are live.
     */
    [[gnu::always_inline]] void
    transfer(FetchStats &stats, isa::BlockId head, ControlOutcome control,
             MemoryOutcome memory, const FetchShape &shape)
    {
        if (!control.atbHit)
            table_.sendUpload(head, bus_);
        if (!memory.l1Hit) {
            stats.linesTransferred += shape.lines;
            table_.sendFill(head, bus_);
        }
    }

    /** Charge the cycles and counters of one fetch to @p stats;
     *  returns its stall split (atbMiss included). */
    [[gnu::always_inline]] StallBreakdown
    charge(FetchStats &stats, ControlOutcome control,
           MemoryOutcome memory, const FetchShape &shape)
    {
        StallBreakdown causes;
        if (!control.atbHit)
            causes.atbMiss = config_.penalties.atbMissPenalty;
        const FetchEvent fe{control.predictionCorrect, memory.l1Hit,
                            memory.l0Hit};
        {
            const StallBreakdown model = stallBreakdown(
                config_.scheme, fe, shape.mops, shape.ops, shape.lines,
                config_.penalties);
            causes.mispredict = model.mispredict;
            causes.l1Refill = model.l1Refill;
            causes.decodeStage = model.decodeStage;
        }
        const std::uint64_t stall = causes.total();
        stats.cycles += shape.mops + stall;
        stats.idealCycles += shape.mops;
        stats.opsDelivered += shape.ops;
        stats.blocksFetched += shape.blocks;
        stats.stallCycles += stall;
        stats.mispredictStallCycles += causes.mispredict;
        stats.refillStallCycles += causes.l1Refill;
        stats.decodeStallCycles += causes.decodeStage;
        stats.atbStallCycles += causes.atbMiss;
        if (memory.l0Hit) {
            stats.l0SavedCycles +=
                l0BypassSavings(config_.scheme, fe, config_.penalties);
        }

        if (fe.predictionCorrect)
            ++stats.predictionsCorrect;
        else
            ++stats.predictionsWrong;
        if (fe.l1Hit)
            ++stats.l1Hits;
        else
            ++stats.l1Misses;
        if (config_.scheme == SchemeClass::kCompressed) {
            if (memory.l0Hit)
                ++stats.l0Hits;
            else
                ++stats.l0Misses;
        }
        return causes;
    }

  private:
    const FetchConfig &config_;
    FetchTable &table_;
    power::BusModel &bus_;
};

/**
 * The counts the cost stage needs to charge a whole run at once
 * (foldCost). "Mispredicted" is ¬predictionCorrect; an L1-served fetch
 * is one with ¬l0Hit ∧ l1Hit.
 */
struct FoldCounts
{
    std::uint64_t mops = 0;            ///< Σ n_mops
    std::uint64_t l1Misses = 0;        ///< |¬l1|
    std::uint64_t missRepair = 0;      ///< Σ over L1 misses of n_lines−1
    std::uint64_t atbMisses = 0;       ///< |¬atb|
    std::uint64_t mispredictServed = 0;  ///< |¬pred ∧ ¬l0 ∧ l1|
    std::uint64_t mispredictMissed = 0;  ///< |¬pred ∧ ¬l1|
    std::uint64_t mispredictL0 = 0;      ///< |¬pred ∧ l0|
};

/** A run's stall split and L0 saving, from its FoldCounts. */
struct FoldedCost
{
    StallBreakdown causes;
    std::uint64_t l0Saved = 0;
};

/**
 * The cost stage summed over a run: exactly the totals CostStage
 * accumulates fetch by fetch (stallBreakdown() summed by case).
 */
inline FoldedCost
foldCost(SchemeClass scheme, const FoldCounts &n,
         const CyclePenalties &p)
{
    std::uint64_t miss_extra = 0;
    if (scheme == SchemeClass::kTailored)
        miss_extra = p.tailoredMissExtra;
    else if (scheme == SchemeClass::kCompressed)
        miss_extra = p.compressedMissExtra;
    const bool compressed = scheme == SchemeClass::kCompressed;

    FoldedCost out;
    out.causes.mispredict = p.mispredictRefill * n.mispredictServed +
                            p.mispredictMissBase * n.mispredictMissed;
    out.causes.l1Refill = miss_extra * n.l1Misses + n.missRepair;
    out.causes.decodeStage =
        compressed ? p.compressedDecodeStage * n.mispredictServed : 0;
    out.causes.atbMiss = p.atbMissPenalty * n.atbMisses;
    out.l0Saved = compressed ? (std::uint64_t(p.mispredictRefill) +
                                p.compressedDecodeStage) *
                                   n.mispredictL0
                             : 0;
    return out;
}

} // namespace tepic::fetch

#endif // TEPIC_FETCH_FETCH_STAGES_HH
