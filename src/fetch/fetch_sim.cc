#include "fetch/fetch_sim.hh"

#include <functional>
#include <future>
#include <optional>
#include <span>

#include "fetch/fetch_stages.hh"
#include "fetch/superblock.hh"
#include "support/logging.hh"
#include "support/profiler.hh"

namespace tepic::fetch {

namespace {

/**
 * The one L0/L1 walk of a simulation: the fetches of @p events, walked
 * as the kernel walks them, through an L0 and an L1 of its own, each
 * outcome put into @p stream for its readers. With recordCacheStats a
 * CacheStatsRecorder observes the walk and its half of the record is
 * returned. If it throws, it publishes kFailed first.
 */
CacheStats
walkMemory(sim::TraceView events,
           const AttEntry *entries,
           std::span<const FetchTable::Lines> lines,
           const FetchUnits *units, const FetchConfig &config,
           MemoryStream &stream)
{
    try {
        L0Buffer buffer(config.l0CapacityOps);
        BankedCache cache(config.cache);
        // The CACHE recorder, when on, observes this walk. The loop
        // tests a raw pointer to it, which (unlike the optional) stays
        // in a register across the recorder's calls.
        std::optional<CacheStatsRecorder> record;
        if (config.recordCacheStats) {
            record.emplace(config.cache, std::uint64_t(events.size()));
            cache.setObserver(&*record);
        }
        CacheStatsRecorder *const recorder = record ? &*record : nullptr;
        std::uint8_t *const outcomes = stream.outcomes();
        std::size_t fetches = 0;
        for (std::size_t first = 0; first < events.size();) {
            const isa::BlockId head = events.block(first);
            const std::size_t last = walkUnit(events, first, units).last;
            if (recorder)
                recorder->beginFetch(first);
            const MemoryOutcome mem = accessMemory(
                config, buffer, cache, head, entries[head].numOps,
                lines[head]);
            MemoryStream::put(outcomes, first, mem);
            if (recorder) {
                if (mem.l0Hit)
                    recorder->onL0Bypass();
                else
                    recorder->onL1Access(mem.l1Hit);
            }
            first = last + 1;
            if (++fetches % MemoryStream::kChunk == 0)
                stream.publish(first);
        }
        stream.publish(events.size());
        return recorder ? recorder->finish() : CacheStats();
    } catch (...) {
        stream.publish(MemoryStream::kFailed);
        throw;
    }
}

/** The record's other half: the stream's second reader walks the
 *  fetches as walkMemory() does, feeding a CacheStreamRecorder; it
 *  stops if the walk fails (the kernel then rethrows). */
CacheStreamRecorder
readMemoryStream(sim::TraceView events,
                 std::span<const FetchTable::Lines> lines,
                 const FetchUnits *units, const CacheConfig &cache,
                 const MemoryStream &stream)
{
    CacheStreamRecorder record(cache);
    std::size_t published = 0;  // fetches entering before it are out
    for (std::size_t first = 0; first < events.size();) {
        const isa::BlockId head = events.block(first);
        const std::size_t last = walkUnit(events, first, units).last;
        record.onFetch(head);
        if (first >= published &&
            (published = stream.await(first)) == MemoryStream::kFailed)
            break;
        if (const MemoryOutcome mem = stream.at(first); !mem.l0Hit)
            record.onL1Access(lines[head].first, lines[head].last,
                              mem.l1Hit);
        first = last + 1;
    }
    return record;
}

/** @p work(@p args...) on a thread of its own, its CPU charged to the
 *  same PROF fetch entry as the kernel's (core::runFetch). */
template <typename Work, typename... Args>
auto
launchCharged(SchemeClass scheme, Work work, Args... args)
{
    return std::async(std::launch::async, [scheme, work, args...] {
        const std::uint64_t cpu_begin = support::prof::threadCpuNowNs();
        auto result = work(args...);
        support::prof::chargeFetchCpu(
            schemeClassName(scheme),
            support::prof::threadCpuNowNs() - cpu_begin);
        return result;
    });
}

} // namespace

FetchStats
simulateFetch(const isa::Image &image, const isa::VliwProgram &program,
              const sim::BlockTrace &trace, const FetchConfig &config)
{
    const FetchUnits *units = config.units;
    const Att att = Att::build(image, program, units);
    FetchTable table(att, image, config.cache.lineBytes);
    // A local view of the trace words: its pointer and size stay in
    // registers across the opaque calls in the loop (a reference to the
    // vector would be reloaded after each).
    const sim::TraceView events = trace.view();

    // The memory stage is the one L0/L1 walk on its own thread; the
    // kernel reads each outcome from the stream and keeps control,
    // cost, the decode touch and the hot hook. A recorded run adds the
    // stream's second reader. Both take copies and the stream only,
    // and read heap data the kernel never writes (its stack would
    // share its cache lines). Declared after everything they read, so
    // an exception out of the loop joins them first.
    MemoryStream memory(events.size());
    std::future<CacheStats> memory_walk = launchCharged(
        config.scheme, walkMemory, events, att.entries().data(),
        table.lines(), units, config, std::ref(memory));
    std::future<CacheStreamRecorder> stream_reader;
    if (config.recordCacheStats)
        stream_reader = launchCharged(config.scheme, readMemoryStream,
                                      events, table.lines(), units,
                                      config.cache, std::cref(memory));

    // The control and cost stages of fetch_stages.hh, composed per
    // fetch with the memory stage's published outcome.
    ControlStage control(att, config.atbEntries, config.predictor);
    power::BusModel bus(kBusWidthBytes);
    CostStage cost(config, table, bus);

    FetchStats stats;

    // The hot recorder is the one per-fetch hook, called after the
    // cost stage; the loop pays one branch per fetch without it.
    std::optional<HotStatsRecorder> hot_stats;
    if (config.recordHotStats) {
        hot_stats.emplace(std::uint32_t(att.entries().size()),
                          std::uint64_t(events.size()));
    }

    std::uint64_t fetches = 0;
    std::size_t published = 0;  // fetches entering before it are out

    for (std::size_t first = 0; first < events.size();) {
        const isa::BlockId head = events.block(first);
        const AttEntry &entry = att.entry(head);
        const FetchTable::Lines &lines = table.lines(head);

        const auto [last, side_exit] = walkUnit(events, first, units);
        const isa::BlockId exit_block = events.block(last);
        FetchShape shape{entry.numMops, entry.numOps, lines.count(),
                         std::uint32_t(last - first + 1)};
        if (side_exit) {
            // A partial traversal delivers only the walked blocks.
            shape.mops = shape.ops = 0;
            for (isa::BlockId b = head; b <= exit_block; ++b) {
                shape.mops += image.blocks[b].numMops;
                shape.ops += image.blocks[b].numOps;
            }
        }

        // Control, then memory: the translation must be resident
        // before the unit can be fetched (a miss costs the ATT upload
        // from ROM), and the L0 is checked before/with the L1.
        const ControlOutcome ctl = control.enter(head);
        if (first >= published &&
            (published = memory.await(first)) == MemoryStream::kFailed)
            memory_walk.get();  // rethrows what stopped the walk
        const MemoryOutcome mem = memory.at(first);
        cost.transfer(stats, head, ctl, mem, shape);

        // Host-side decode: first touch decodes a block, replays come
        // from the cache. Outside the architectural model by
        // construction — nothing below reads the decoded ops.
        if (config.decodedBlocks != nullptr) {
            for (isa::BlockId b = head; b <= exit_block; ++b)
                config.decodedBlocks->ops(b);
        }

        const StallBreakdown causes =
            cost.charge(stats, ctl, mem, shape);
        ++fetches;

        if (side_exit)
            ++stats.sideExits;
        const bool next_correct =
            control.leave(head, events.event(last), side_exit);

        if (hot_stats) {
            FetchObservation fetch;
            const std::uint64_t stall = causes.total();
            fetch.index = first;
            fetch.block = head;
            fetch.cycles = std::uint32_t(shape.mops + stall);
            fetch.stallCycles = std::uint32_t(stall);
            fetch.mispredictStall = std::uint32_t(causes.mispredict);
            fetch.branchTaken = events.taken(last);
            fetch.nextPredictionCorrect = next_correct;
            hot_stats->onFetch(fetch);
        }

        first = last + 1;
    }

    stats.fetches = fetches;
    stats.atbHits = control.atb().hits();
    stats.atbMisses = control.atb().misses();
    stats.busBeats = bus.beats();
    stats.busBitFlips = bus.bitFlips();
    stats.bytesTransferred = bus.bytesTransferred();
    if (hot_stats)
        stats.hotStats = hot_stats->finish();
    CacheStats &cs = stats.cacheStats = memory_walk.get();
    if (cs.recorded) {
        stream_reader.get().finish(cs);
        // The record must have seen the kernel's memory stream.
        TEPIC_ASSERT(cs.fetches == stats.fetches &&
                         cs.l0Bypasses == stats.l0Hits &&
                         cs.hits == stats.l1Hits - stats.l0Hits &&
                         cs.misses == stats.l1Misses,
                     "the CACHE record disagrees with the kernel's "
                     "L1/L0 counters");
        cs.atbHits = stats.atbHits;
        cs.atbMisses = stats.atbMisses;
        cs.assertTiling();
    }
    return stats;
}

} // namespace tepic::fetch
