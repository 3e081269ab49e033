#include "fetch/fetch_sim.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <vector>

#include "fetch/superblock.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace tepic::fetch {

namespace {

/**
 * Perfetto counter-track names per scheme. trace::counter() keeps the
 * pointer (names are not copied), so these must be string literals.
 */
const char *
stallRateCounterName(SchemeClass scheme)
{
    switch (scheme) {
      case SchemeClass::kBase: return "fetch.base.stall_rate";
      case SchemeClass::kTailored: return "fetch.tailored.stall_rate";
      case SchemeClass::kCompressed:
        return "fetch.compressed.stall_rate";
    }
    return "fetch.?.stall_rate";
}

/** Fetches between counter-track samples (power of two). */
constexpr std::uint64_t kCounterInterval = 1024;

/**
 * The per-fetch FetchTrace ring plus the per-cause stall histograms,
 * sampled every FetchTraceOptions::sampleEvery fetches.
 */
class TraceRecorder final : public FetchObserver
{
  public:
    TraceRecorder(const FetchTraceOptions &options, FetchStats &stats)
        : options_(options), stats_(stats) {}

    void
    onFetch(const FetchObservation &fetch) override
    {
        const std::uint64_t ordinal = fetches_++;
        if (options_.sampleEvery > 1 &&
            ordinal % options_.sampleEvery != 0) {
            return;
        }
        const FetchTraceRecord &rec = fetch.record;
        stats_.trace.record(options_, rec);
        stats_.stallHistogram.sample(std::int64_t(rec.stallCycles));
        stats_.mispredictHistogram.sample(
            std::int64_t(rec.mispredictStall));
        stats_.refillHistogram.sample(std::int64_t(rec.refillStall));
        stats_.decodeHistogram.sample(std::int64_t(rec.decodeStall));
        stats_.atbHistogram.sample(std::int64_t(rec.atbStall));
    }

  private:
    const FetchTraceOptions &options_;
    FetchStats &stats_;
    std::uint64_t fetches_ = 0;
};

/**
 * Everything the per-fetch loop needs that depends only on (image,
 * ATT entry, L1 geometry), computed once per simulation: each entry's
 * L1 line span, and its two bus transfers — the miss fill and the ATT
 * upload — folded into bursts on first use and replayed after.
 * Folding is exact: a miss refills every line of the entry, so its
 * fill always moves the same bytes, and an upload is a fixed pattern
 * per head. A bus wider than 8 bytes cannot fold and gets the raw
 * bytes each time.
 */
class FetchTable
{
  public:
    struct Lines
    {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
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

    const Lines &lines(isa::BlockId head) const { return lines_[head]; }

    /** A miss's traffic: the entry's lines from its first byte,
     *  clipped to the image. */
    void
    sendFill(isa::BlockId head, power::BusModel &bus)
    {
        send(bus, traffic_[head].fill, [&] {
            const Lines &l = lines_[head];
            const std::size_t begin = att_.entry(head).byteAddress;
            const std::size_t end = std::min<std::size_t>(
                begin + std::size_t(l.last - l.first + 1) * lineBytes_,
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
        if (!bus.foldable()) {
            bus.transfer(bytes());
            return;
        }
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

} // namespace

void
FetchTrace::record(const FetchTraceOptions &options,
                   const FetchTraceRecord &rec)
{
    ++recorded_;
    if (options.ringCapacity == 0 ||
        records_.size() < options.ringCapacity) {
        records_.push_back(rec);
        return;
    }
    // Ring full: overwrite the oldest record.
    records_[head_] = rec;
    head_ = (head_ + 1) % records_.size();
}

std::vector<FetchTraceRecord>
FetchTrace::inOrder() const
{
    std::vector<FetchTraceRecord> out;
    out.reserve(records_.size());
    out.insert(out.end(), records_.begin() + std::ptrdiff_t(head_),
               records_.end());
    out.insert(out.end(), records_.begin(),
               records_.begin() + std::ptrdiff_t(head_));
    return out;
}

FetchStats
simulateFetch(const isa::Image &image, const isa::VliwProgram &program,
              const sim::BlockTrace &trace, const FetchConfig &config)
{
    const FetchUnits *units = config.units;
    const Att att = Att::build(image, program, units);
    Atb atb(att, config.atbEntries, config.predictor);
    BankedCache cache(config.cache);
    L0Buffer buffer(config.l0CapacityOps);
    power::BusModel bus(config.busWidthBytes);
    FetchTable table(att, image, config.cache.lineBytes);

    FetchStats stats;
    // A local view: its pointer and size stay in registers across the
    // opaque calls in the loop (a reference to the vector would be
    // reloaded after each).
    const std::span<const sim::TraceEvent> events = trace.events;

    // One relaxed atomic load, hoisted out of the hot loop so the
    // tracing-off path keeps its < 2 % overhead bound.
    const bool trace_sink = support::trace::enabled();
    const char *stall_rate_name = stallRateCounterName(config.scheme);

    // Recorders attach to the one per-fetch observation point; the
    // loop pays one branch per fetch when none is attached. The cache
    // recorder also takes the L1's line events (CacheLineObserver).
    // Both stats recorders fold to no-op stubs under
    // -DTEPIC_ENABLE_TRACING=OFF.
    std::optional<TraceRecorder> trace_rec;
    std::optional<CacheStatsRecorder> cache_stats;
    std::optional<HotStatsRecorder> hot_stats;
    std::array<FetchObserver *, 3> observers{};
    std::size_t n_observers = 0;
    if (config.trace.enabled)
        observers[n_observers++] = &trace_rec.emplace(config.trace, stats);
    if (config.cacheStats.enabled) {
        cache.setObserver(&cache_stats.emplace(
            config.cache, std::uint64_t(events.size()),
            config.cacheStats));
        observers[n_observers++] = &*cache_stats;
    }
    if (config.hotStats.enabled) {
        observers[n_observers++] = &hot_stats.emplace(
            std::uint32_t(att.entries().size()),
            std::uint64_t(events.size()), config.hotStats);
    }

    // Prediction for the very first fetch: treat as correct (cold
    // start is charged to neither scheme).
    bool next_prediction_correct = true;
    std::uint64_t fetches = 0;

    for (std::size_t first = 0; first < events.size();) {
        const isa::BlockId head = events[first].block;
        const AttEntry &entry = att.entry(head);
        const FetchTable::Lines &lines = table.lines(head);
        const std::uint32_t n_lines = lines.last - lines.first + 1;

        // Walk the unit: the fetch streams on while the trace follows
        // the unit's fallthrough chain, and leaving before the tail is
        // a side exit. Under the identity partition the walk is the
        // head alone.
        std::size_t last = first;
        std::uint32_t mops = entry.numMops;
        std::uint32_t ops = entry.numOps;
        bool side_exit = false;
        if (units) {
            TEPIC_ASSERT(units->isHead(head),
                         "entered a fetch unit off its head (side "
                         "entrance?) at block ", head);
            const isa::BlockId tail = head + units->lengthOf[head] - 1;
            while (events[last].block != tail &&
                   events[last].next == events[last].block + 1) {
                TEPIC_ASSERT(last + 1 < events.size() &&
                                 events[last + 1].block ==
                                     events[last].next,
                             "trace discontinuity");
                ++last;
            }
            side_exit = events[last].block != tail;
            if (side_exit) {
                // A partial traversal delivers only the walked blocks.
                mops = ops = 0;
                for (isa::BlockId b = head; b <= events[last].block;
                     ++b) {
                    mops += image.blocks[b].numMops;
                    ops += image.blocks[b].numOps;
                }
            }
        }
        const sim::TraceEvent &exit = events[last];
        const auto walked = std::uint32_t(last - first + 1);

        // Per-cause stall accounting for this fetch; the simulator
        // owns the ATB cause, the cycle model the other three.
        StallBreakdown causes;

        // ATB: translation must be resident before the unit can be
        // fetched; a miss costs the ATT upload from ROM.
        const bool atb_hit = atb.access(head);
        if (!atb_hit) {
            causes.atbMiss += config.penalties.atbMissPenalty;
            // The ATT entry travels over the memory bus.
            table.sendUpload(head, bus);
        }

        // L0 buffer (compressed only) — checked before/with the L1.
        bool l0_hit = false;
        if (config.scheme == SchemeClass::kCompressed) {
            l0_hit = buffer.access(head, entry.numOps);
        }

        // L1 access (skipped entirely on an L0 hit: the buffer has
        // priority and already holds the whole decompressed unit).
        bool l1_hit = true;
        if (!l0_hit) {
            l1_hit = cache.accessLines(lines.first, lines.last);
            if (!l1_hit) {
                // A miss fills every line of the unit.
                stats.linesTransferred += n_lines;
                // Miss traffic: the unit's bytes cross the bus.
                table.sendFill(head, bus);
            }
        }
        // Built from locals only here, so it stays in registers.
        const FetchEvent fe{next_prediction_correct, l1_hit, l0_hit};

        // Host-side decode: first touch decodes a block, replays come
        // from the cache. Outside the architectural model by
        // construction — nothing below reads the decoded ops.
        if (config.decodedBlocks != nullptr) {
            for (isa::BlockId b = head; b <= exit.block; ++b)
                config.decodedBlocks->ops(b);
        }

        {
            const StallBreakdown model = stallBreakdown(
                config.scheme, fe, mops, ops, n_lines,
                config.penalties);
            causes.mispredict += model.mispredict;
            causes.l1Refill += model.l1Refill;
            causes.decodeStage += model.decodeStage;
        }
        const std::uint64_t stall = causes.total();
        const std::uint64_t fetch_cycles = mops + stall;
        stats.cycles += fetch_cycles;
        stats.idealCycles += mops;
        stats.opsDelivered += ops;
        stats.blocksFetched += walked;
        ++fetches;
        stats.stallCycles += stall;
        stats.mispredictStallCycles += causes.mispredict;
        stats.refillStallCycles += causes.l1Refill;
        stats.decodeStallCycles += causes.decodeStage;
        stats.atbStallCycles += causes.atbMiss;
        if (l0_hit) {
            stats.l0SavedCycles +=
                l0BypassSavings(config.scheme, fe, config.penalties);
        }

        if (trace_sink && fetches % kCounterInterval == 0) {
            // Counter tracks: running stall rate (stall cycles per
            // total cycle so far) and, for compressed, L0 occupancy.
            support::trace::counter(
                stall_rate_name,
                stats.cycles ? double(stats.stallCycles) /
                                   double(stats.cycles)
                             : 0.0,
                "fetch");
            if (config.scheme == SchemeClass::kCompressed) {
                support::trace::counter("fetch.compressed.l0_occupancy",
                                        double(buffer.residentOps()),
                                        "fetch");
            }
        }

        if (fe.predictionCorrect)
            ++stats.predictionsCorrect;
        else
            ++stats.predictionsWrong;
        if (fe.l1Hit)
            ++stats.l1Hits;
        else
            ++stats.l1Misses;
        if (config.scheme == SchemeClass::kCompressed) {
            if (l0_hit)
                ++stats.l0Hits;
            else
                ++stats.l0Misses;
        }

        // Predict the follower, then train with the actual outcome. A
        // side exit breaks the streaming assumption: the follower was
        // not being predicted at all, so it is charged as a mispredict.
        if (side_exit) {
            ++stats.sideExits;
            next_prediction_correct = false;
        } else {
            next_prediction_correct = atb.predictNext(head) == exit.next;
        }
        atb.update(head, exit.branchTaken, exit.next);

        if (n_observers != 0) {
            FetchObservation fetch;
            FetchTraceRecord &rec = fetch.record;
            rec.index = first;
            rec.block = head;
            rec.cycles = std::uint32_t(fetch_cycles);
            rec.stallCycles = std::uint32_t(stall);
            rec.mispredictStall = std::uint32_t(causes.mispredict);
            rec.refillStall = std::uint32_t(causes.l1Refill);
            rec.decodeStall = std::uint32_t(causes.decodeStage);
            rec.atbStall = std::uint32_t(causes.atbMiss);
            rec.atbHit = atb_hit;
            rec.l1Hit = fe.l1Hit;
            rec.l0Hit = l0_hit;
            rec.predictionCorrect = fe.predictionCorrect;
            fetch.blocks = walked;
            fetch.byteAddress = entry.byteAddress;
            fetch.byteSize = entry.byteSize;
            fetch.firstLine = lines.first;
            fetch.lastLine = lines.last;
            fetch.branchTaken = exit.branchTaken;
            fetch.nextPredictionCorrect = next_prediction_correct;
            for (std::size_t k = 0; k < n_observers; ++k)
                observers[k]->onFetch(fetch);
        }

        first = last + 1;
    }

    stats.fetches = fetches;
    stats.atbHits = atb.hits();
    stats.atbMisses = atb.misses();
    stats.busBeats = bus.beats();
    stats.busBitFlips = bus.bitFlips();
    stats.bytesTransferred = bus.bytesTransferred();
    if (cache_stats)
        stats.cacheStats = cache_stats->finish();
    if (hot_stats)
        stats.hotStats = hot_stats->finish();
    return stats;
}

} // namespace tepic::fetch
