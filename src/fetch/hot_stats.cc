#include "fetch/hot_stats.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace tepic::fetch {

// ---------------------------------------------------------------------------
// HotStats: merge + invariants.

std::uint64_t
HotStats::executedBlocks() const
{
    std::uint64_t executed = 0;
    for (const std::uint64_t fetches : blockFetches)
        if (fetches > 0)
            ++executed;
    return executed;
}

std::vector<std::uint32_t>
HotStats::hotOrder() const
{
    std::vector<std::uint32_t> order(blockFetches.size());
    for (std::uint32_t b = 0; b < order.size(); ++b)
        order[b] = b;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         if (blockFetches[a] != blockFetches[b])
                             return blockFetches[a] > blockFetches[b];
                         return a < b;
                     });
    return order;
}

std::uint64_t
HotStats::topCoverage(std::size_t k) const
{
    const auto order = hotOrder();
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < std::min(k, order.size()); ++i)
        covered += blockFetches[order[i]];
    return covered;
}

void
HotStats::merge(const HotStats &other)
{
    if (!other.recorded)
        return;
    if (!recorded) {
        *this = other;
        return;
    }
    TEPIC_ASSERT(sameShape(other),
                 "HotStats::merge across program shapes (the session "
                 "layer must key these apart)");
    blocksSimulated += other.blocksSimulated;
    cycles += other.cycles;
    stallCycles += other.stallCycles;
    taken += other.taken;
    notTaken += other.notTaken;
    mispredicts += other.mispredicts;
    mispredictStallCycles += other.mispredictStallCycles;
    unconsumedMispredicts += other.unconsumedMispredicts;

    auto add_vec = [](std::vector<std::uint64_t> &into,
                      const std::vector<std::uint64_t> &from) {
        TEPIC_ASSERT(into.size() == from.size(),
                     "HotStats::merge with mismatched vectors");
        for (std::size_t i = 0; i < into.size(); ++i)
            into[i] += from[i];
    };
    add_vec(blockFetches, other.blockFetches);
    add_vec(blockCycles, other.blockCycles);
    add_vec(blockStalls, other.blockStalls);
    add_vec(siteTaken, other.siteTaken);
    add_vec(siteNotTaken, other.siteNotTaken);
    add_vec(siteMispredicts, other.siteMispredicts);
    add_vec(siteMispredictStall, other.siteMispredictStall);
    add_vec(phaseFetches, other.phaseFetches);

    // Function attribution describes the static program, not the
    // run: adopt whichever side has it.
    if (functionNames.empty() && !other.functionNames.empty()) {
        functionNames = other.functionNames;
        blockFunction = other.blockFunction;
    }
}

void
HotStats::assertTiling() const
{
    if (!recorded)
        return;
    TEPIC_ASSERT(blockFetches.size() == staticBlocks &&
                     blockCycles.size() == staticBlocks &&
                     blockStalls.size() == staticBlocks,
                 "per-block vectors must span the static blocks");
    std::uint64_t fetch_sum = 0, cycle_sum = 0, stall_sum = 0;
    for (std::uint32_t b = 0; b < staticBlocks; ++b) {
        TEPIC_ASSERT(blockStalls[b] <= blockCycles[b],
                     "per-block stall exceeds per-block cycles "
                     "(block ", b, ")");
        fetch_sum += blockFetches[b];
        cycle_sum += blockCycles[b];
        stall_sum += blockStalls[b];
    }
    TEPIC_ASSERT(fetch_sum == blocksSimulated,
                 "per-block fetches must tile blocks_simulated: ",
                 fetch_sum, " != ", blocksSimulated);
    TEPIC_ASSERT(cycle_sum == cycles,
                 "per-block cycles must tile the cycle total: ",
                 cycle_sum, " != ", cycles);
    TEPIC_ASSERT(stall_sum == stallCycles,
                 "per-block stalls must tile stall_cycles: ",
                 stall_sum, " != ", stallCycles);
    TEPIC_ASSERT(stallCycles <= cycles,
                 "more stall cycles than cycles");

    TEPIC_ASSERT(taken + notTaken == blocksSimulated,
                 "every event trains the predictor exactly once: ",
                 taken, " + ", notTaken, " != ", blocksSimulated);
    std::uint64_t taken_sum = 0, not_taken_sum = 0;
    std::uint64_t mispredict_sum = 0, stall_site_sum = 0;
    for (std::uint32_t b = 0; b < staticBlocks; ++b) {
        TEPIC_ASSERT(siteMispredicts[b] <=
                         siteTaken[b] + siteNotTaken[b],
                     "more mispredicts than predictions at site ", b);
        TEPIC_ASSERT(siteMispredictStall[b] == 0 ||
                         siteMispredicts[b] > 0,
                     "mispredict stall charged to a site without a "
                     "mispredict (site ", b, ")");
        taken_sum += siteTaken[b];
        not_taken_sum += siteNotTaken[b];
        mispredict_sum += siteMispredicts[b];
        stall_site_sum += siteMispredictStall[b];
    }
    TEPIC_ASSERT(taken_sum == taken && not_taken_sum == notTaken,
                 "per-site outcomes must tile the direction totals");
    TEPIC_ASSERT(mispredict_sum == mispredicts,
                 "per-site mispredicts must tile the mispredict "
                 "total: ", mispredict_sum, " != ", mispredicts);
    TEPIC_ASSERT(stall_site_sum == mispredictStallCycles,
                 "per-site mispredict stalls must tile the mispredict "
                 "stall counter: ", stall_site_sum,
                 " != ", mispredictStallCycles);
    TEPIC_ASSERT(mispredictStallCycles <= stallCycles,
                 "mispredict stall exceeds the stall total");
    TEPIC_ASSERT(unconsumedMispredicts <= mispredicts,
                 "unconsumed mispredicts are a subset of mispredicts");

    // Phase columns reproduce the per-block fetch counts.
    TEPIC_ASSERT(phaseFetches.size() ==
                     std::size_t(kPhaseEpochs) * staticBlocks,
                 "phase matrix must be epochs x static blocks");
    for (std::uint32_t b = 0; b < staticBlocks; ++b) {
        std::uint64_t col = 0;
        for (unsigned e = 0; e < kPhaseEpochs; ++e)
            col += phaseFetches[std::size_t(e) * staticBlocks + b];
        TEPIC_ASSERT(col == blockFetches[b],
                     "phase column must sum to the per-block fetch "
                     "count (block ", b, ")");
    }

    if (!blockFunction.empty()) {
        TEPIC_ASSERT(blockFunction.size() == staticBlocks,
                     "function attribution must span the static "
                     "blocks");
        for (const std::uint32_t func : blockFunction)
            TEPIC_ASSERT(func < functionNames.size(),
                         "block mapped to an unnamed function");
    }
}

// ---------------------------------------------------------------------------
// HotStatsRecorder.

HotStatsRecorder::HotStatsRecorder(std::uint32_t staticBlocks,
                                   std::uint64_t expectedEvents)
    : clock_(HotStats::kPhaseEpochs, expectedEvents)
{
    stats_.staticBlocks = staticBlocks;
    stats_.blockFetches.assign(staticBlocks, 0);
    stats_.blockCycles.assign(staticBlocks, 0);
    stats_.blockStalls.assign(staticBlocks, 0);
    stats_.siteTaken.assign(staticBlocks, 0);
    stats_.siteNotTaken.assign(staticBlocks, 0);
    stats_.siteMispredicts.assign(staticBlocks, 0);
    stats_.siteMispredictStall.assign(staticBlocks, 0);
    stats_.phaseFetches.assign(
        std::size_t(HotStats::kPhaseEpochs) * staticBlocks, 0);
}

void
HotStatsRecorder::onFetch(const FetchObservation &fetch)
{
    const std::uint32_t block = fetch.block;
    TEPIC_ASSERT(block < stats_.staticBlocks,
                 "fetch of an unknown static block");
    // Epoch of *this* fetch, from the trace index it starts at (never
    // wall clock: the phase matrix must be bit-identical across
    // --jobs).
    const unsigned epoch = clock_.at(fetch.index);
    ++stats_.blocksSimulated;
    stats_.cycles += fetch.cycles;
    stats_.stallCycles += fetch.stallCycles;
    ++stats_.blockFetches[block];
    stats_.blockCycles[block] += fetch.cycles;
    stats_.blockStalls[block] += fetch.stallCycles;
    ++stats_.phaseFetches[std::size_t(epoch) * stats_.staticBlocks +
                          block];
    if (fetch.mispredictStall > 0) {
        // The repair stall of a wrong prediction is charged at the
        // *following* fetch; the responsible site made the prediction
        // one fetch earlier (the cold-start fetch charges none).
        TEPIC_ASSERT(lastSite_ != kNoSite,
                     "mispredict stall before any prediction");
        stats_.siteMispredictStall[lastSite_] += fetch.mispredictStall;
        stats_.mispredictStallCycles += fetch.mispredictStall;
    }

    // The prediction made at the end of this fetch: the block is the
    // site, branchTaken the direction the trace actually took.
    if (fetch.branchTaken) {
        ++stats_.siteTaken[block];
        ++stats_.taken;
    } else {
        ++stats_.siteNotTaken[block];
        ++stats_.notTaken;
    }
    if (!fetch.nextPredictionCorrect) {
        ++stats_.siteMispredicts[block];
        ++stats_.mispredicts;
    }
    lastSite_ = block;
    lastPredictionWrong_ = !fetch.nextPredictionCorrect;
}

HotStats
HotStatsRecorder::finish()
{
    stats_.recorded = true;
    // The final prediction of a run is made (and counted per-site)
    // but never consumed by a following event.
    stats_.unconsumedMispredicts =
        lastPredictionWrong_ ? 1 : 0;
    stats_.assertTiling();
    return std::move(stats_);
}

// ---------------------------------------------------------------------------
// HOT-report rendering (the store is report_store.hh).

namespace {

/** Top-K export width: everything beyond folds into "rest". */
std::size_t
exportWidth(const HotStats &s)
{
    return std::min<std::size_t>(HotStats::kTopBlocks,
                                 s.blockFetches.size());
}

} // namespace

void
writeScheme(support::JsonWriter &json, const HotStats &s)
{
    using support::JsonWriter;
    const std::size_t k = exportWidth(s);
    const auto order = s.hotOrder();

    json.object();
    json.key("config").object(JsonWriter::kInline);
    json.key("static_blocks").value(s.staticBlocks);
    json.key("phase_epochs").value(HotStats::kPhaseEpochs);
    json.key("top_blocks").value(k);
    json.end();
    json.key("totals").object(JsonWriter::kInline);
    json.key("blocks_simulated").value(s.blocksSimulated);
    json.key("cycles").value(s.cycles);
    json.key("stall_cycles").value(s.stallCycles);
    json.key("executed_blocks").value(s.executedBlocks());
    json.end();

    // Hottest blocks individually; the exact residual keeps every
    // total re-derivable (top + rest tiles totals).
    json.key("blocks").object();
    json.key("top").array();
    std::uint64_t rest_fetches = s.blocksSimulated;
    std::uint64_t rest_cycles = s.cycles;
    std::uint64_t rest_stall = s.stallCycles;
    for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t b = order[i];
        json.array(JsonWriter::kInline)
            .value(b)
            .value(s.blockFetches[b])
            .value(s.blockCycles[b])
            .value(s.blockStalls[b])
            .end();
        rest_fetches -= s.blockFetches[b];
        rest_cycles -= s.blockCycles[b];
        rest_stall -= s.blockStalls[b];
    }
    json.end();
    json.key("rest").object(JsonWriter::kInline);
    json.key("fetches").value(rest_fetches);
    json.key("cycles").value(rest_cycles);
    json.key("stall").value(rest_stall);
    json.end();
    // Monotone hot/cold coverage curve: cumulative fetches of the i
    // hottest blocks, as exact counts (the tooling derives ratios).
    json.key("coverage").array(JsonWriter::kInline);
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < k; ++i)
        json.value(covered += s.blockFetches[order[i]]);
    json.end().end();

    // Per-function rollup of the same per-block vectors — the input
    // profile-guided selective compression consumes. Tiles the
    // totals exactly when attribution is attached.
    json.key("functions").object();
    if (!s.blockFunction.empty()) {
        struct FuncAgg
        {
            std::uint64_t staticBlocks = 0;
            std::uint64_t executed = 0;
            std::uint64_t fetches = 0;
            std::uint64_t cycles = 0;
            std::uint64_t stall = 0;
        };
        // std::map over names for deterministic iteration.
        std::map<std::string, FuncAgg> funcs;
        for (std::uint32_t b = 0; b < s.staticBlocks; ++b) {
            FuncAgg &agg = funcs[s.functionNames[s.blockFunction[b]]];
            ++agg.staticBlocks;
            if (s.blockFetches[b] > 0)
                ++agg.executed;
            agg.fetches += s.blockFetches[b];
            agg.cycles += s.blockCycles[b];
            agg.stall += s.blockStalls[b];
        }
        for (const auto &[name, agg] : funcs) {
            json.key(name).object(JsonWriter::kInline);
            json.key("static_blocks").value(agg.staticBlocks);
            json.key("executed_blocks").value(agg.executed);
            json.key("fetches").value(agg.fetches);
            json.key("cycles").value(agg.cycles);
            json.key("stall").value(agg.stall);
            json.end();
        }
    }
    json.end();

    // Branch sites: worst predicted first (mispredict stall desc,
    // mispredicts desc, id asc), with the same exact-residual shape.
    json.key("branch_sites").object();
    json.key("totals").object(JsonWriter::kInline);
    json.key("predictions").value(s.predictions());
    json.key("taken").value(s.taken);
    json.key("not_taken").value(s.notTaken);
    json.key("mispredicts").value(s.mispredicts);
    json.key("mispredict_stall_cycles").value(s.mispredictStallCycles);
    json.key("unconsumed_mispredicts").value(s.unconsumedMispredicts);
    json.end();
    std::vector<std::uint32_t> sites(s.siteTaken.size());
    for (std::uint32_t b = 0; b < sites.size(); ++b)
        sites[b] = b;
    std::stable_sort(
        sites.begin(), sites.end(),
        [&s](std::uint32_t a, std::uint32_t b) {
            if (s.siteMispredictStall[a] != s.siteMispredictStall[b])
                return s.siteMispredictStall[a] >
                       s.siteMispredictStall[b];
            if (s.siteMispredicts[a] != s.siteMispredicts[b])
                return s.siteMispredicts[a] > s.siteMispredicts[b];
            return a < b;
        });
    json.key("top").array();
    std::uint64_t rest_taken = s.taken;
    std::uint64_t rest_not_taken = s.notTaken;
    std::uint64_t rest_mispredicts = s.mispredicts;
    std::uint64_t rest_mp_stall = s.mispredictStallCycles;
    for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t b = sites[i];
        json.array(JsonWriter::kInline)
            .value(b)
            .value(s.siteTaken[b])
            .value(s.siteNotTaken[b])
            .value(s.siteMispredicts[b])
            .value(s.siteMispredictStall[b])
            .end();
        rest_taken -= s.siteTaken[b];
        rest_not_taken -= s.siteNotTaken[b];
        rest_mispredicts -= s.siteMispredicts[b];
        rest_mp_stall -= s.siteMispredictStall[b];
    }
    json.end();
    json.key("rest").object(JsonWriter::kInline);
    json.key("taken").value(rest_taken);
    json.key("not_taken").value(rest_not_taken);
    json.key("mispredicts").value(rest_mispredicts);
    json.key("mispredict_stall").value(rest_mp_stall);
    json.end().end();

    // Phase profile over the same top blocks; per-epoch "rest"
    // completes each row so rows tile the epoch's fetches.
    json.key("phase").object();
    json.key("block_ids").array(JsonWriter::kInline);
    for (std::size_t i = 0; i < k; ++i)
        json.value(order[i]);
    json.end();
    json.key("matrix").array();
    std::vector<std::uint64_t> rest_row;
    for (unsigned e = 0; e < HotStats::kPhaseEpochs; ++e) {
        const std::size_t row = std::size_t(e) * s.staticBlocks;
        std::uint64_t row_total = 0;
        for (std::uint32_t b = 0; b < s.staticBlocks; ++b)
            row_total += s.phaseFetches[row + b];
        json.array(JsonWriter::kInline);
        for (std::size_t i = 0; i < k; ++i) {
            const std::uint64_t cell = s.phaseFetches[row + order[i]];
            json.value(cell);
            row_total -= cell;
        }
        json.end();
        rest_row.push_back(row_total);
    }
    json.end();
    json.key("rest").array(JsonWriter::kInline);
    for (const std::uint64_t rest : rest_row)
        json.value(rest);
    json.end().end().end();
}

} // namespace tepic::fetch
