#include "fetch/fetch_sim.hh"

#include <array>
#include <optional>
#include <span>

#include "fetch/fetch_stages.hh"
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

} // namespace

FetchStats
simulateFetch(const isa::Image &image, const isa::VliwProgram &program,
              const sim::BlockTrace &trace, const FetchConfig &config)
{
    const FetchUnits *units = config.units;
    const Att att = Att::build(image, program, units);
    FetchTable table(att, image, config.cache.lineBytes);
    // The three stages of fetch_stages.hh, composed per fetch.
    ControlStage control(att, config.atbEntries, config.predictor);
    BankedCache cache(config.cache);
    L0Buffer buffer(config.l0CapacityOps);
    power::BusModel bus(config.busWidthBytes);
    CostStage cost(config, table, bus);

    FetchStats stats;
    // A local view: its pointer and size stay in registers across the
    // opaque calls in the loop (a reference to the vector would be
    // reloaded after each).
    const std::span<const sim::TraceEvent> events = trace.events;

    // One relaxed atomic load, hoisted out of the hot loop so the
    // tracing-off path keeps its < 2 % overhead bound.
    const bool trace_sink = support::trace::enabled();
    const char *stall_rate_name = stallRateCounterName(config.scheme);

    // Recorders attach to the one per-fetch observation point, after
    // the cost stage; the loop pays one branch per fetch when none is
    // attached. The cache recorder also takes the L1's line events
    // (CacheLineObserver). Builds without tracing attach none.
    std::optional<CacheStatsRecorder> cache_stats;
    std::optional<HotStatsRecorder> hot_stats;
    std::array<FetchObserver *, 2> observers{};
    std::size_t n_observers = 0;
    if (TEPIC_CACHESTATS_ENABLED && config.recordCacheStats) {
        cache.setObserver(&cache_stats.emplace(
            config.cache, std::uint64_t(events.size())));
        observers[n_observers++] = &*cache_stats;
    }
    if (TEPIC_HOTSTATS_ENABLED && config.recordHotStats) {
        observers[n_observers++] = &hot_stats.emplace(
            std::uint32_t(att.entries().size()),
            std::uint64_t(events.size()));
    }

    std::uint64_t fetches = 0;

    for (std::size_t first = 0; first < events.size();) {
        const isa::BlockId head = events[first].block;
        const AttEntry &entry = att.entry(head);
        const FetchTable::Lines &lines = table.lines(head);

        // Walk the unit: the fetch streams on while the trace follows
        // the unit's fallthrough chain, and leaving before the tail is
        // a side exit. Under the identity partition the walk is the
        // head alone.
        std::size_t last = first;
        FetchShape shape{entry.numMops, entry.numOps, lines.count(), 1};
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
                shape.mops = shape.ops = 0;
                for (isa::BlockId b = head; b <= events[last].block;
                     ++b) {
                    shape.mops += image.blocks[b].numMops;
                    shape.ops += image.blocks[b].numOps;
                }
            }
            shape.blocks = std::uint32_t(last - first + 1);
        }
        const sim::TraceEvent &exit = events[last];

        // Control, then memory: the translation must be resident
        // before the unit can be fetched (a miss costs the ATT upload
        // from ROM), and the L0 is checked before/with the L1.
        const ControlOutcome ctl = control.enter(head);
        const MemoryOutcome mem =
            accessMemory(config, buffer, cache, head, entry.numOps, lines);
        cost.transfer(stats, head, ctl, mem, shape);

        // Host-side decode: first touch decodes a block, replays come
        // from the cache. Outside the architectural model by
        // construction — nothing below reads the decoded ops.
        if (config.decodedBlocks != nullptr) {
            for (isa::BlockId b = head; b <= exit.block; ++b)
                config.decodedBlocks->ops(b);
        }

        const StallBreakdown causes =
            cost.charge(stats, ctl, mem, shape);
        ++fetches;

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

        if (side_exit)
            ++stats.sideExits;
        const bool next_correct = control.leave(head, exit, side_exit);

        if (n_observers != 0) {
            FetchObservation fetch;
            const std::uint64_t stall = causes.total();
            fetch.index = first;
            fetch.block = head;
            fetch.blocks = shape.blocks;
            fetch.cycles = std::uint32_t(shape.mops + stall);
            fetch.stallCycles = std::uint32_t(stall);
            fetch.mispredictStall = std::uint32_t(causes.mispredict);
            fetch.atbHit = ctl.atbHit;
            fetch.l1Hit = mem.l1Hit;
            fetch.l0Hit = mem.l0Hit;
            fetch.firstLine = lines.first;
            fetch.lastLine = lines.last;
            fetch.branchTaken = exit.branchTaken;
            fetch.nextPredictionCorrect = next_correct;
            for (std::size_t k = 0; k < n_observers; ++k)
                observers[k]->onFetch(fetch);
        }

        first = last + 1;
    }

    stats.fetches = fetches;
    stats.atbHits = control.atb().hits();
    stats.atbMisses = control.atb().misses();
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
