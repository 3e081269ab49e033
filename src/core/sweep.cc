#include "core/sweep.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>

#include "core/pipeline.hh"
#include "decoder/complexity.hh"
#include "fetch/fetch_stages.hh"
#include "fetch/lru_stack.hh"
#include "support/cli.hh"
#include "support/keys.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/popcount.hh"
#include "support/thread_pool.hh"
#include "workloads/workload.hh"

namespace tepic::core::sweep {

using support::JsonWriter;

namespace {

/**
 * CLI/key token for a predictor kind. predictorKindName() spells the
 * paper's names ("2bit", "PAs"); sweep keys want lowercase tokens
 * that survive shells and sorting.
 */
const char *
predictorToken(fetch::PredictorKind kind)
{
    switch (kind) {
      case fetch::PredictorKind::kBimodal: return "bimodal";
      case fetch::PredictorKind::kGshare: return "gshare";
      case fetch::PredictorKind::kPas: return "pas";
    }
    return "?";
}

} // namespace

const std::vector<PenaltyProfile> &
penaltyProfiles()
{
    static const std::vector<PenaltyProfile> profiles = [] {
        std::vector<PenaltyProfile> out;
        // The paper's Table-1 constants.
        out.push_back({"paper", fetch::CyclePenalties{}});
        // Memory-side penalties doubled: slow flash/ROM behind the
        // bus, the regime where compression's refill savings matter
        // most.
        fetch::CyclePenalties slowmem;
        slowmem.mispredictMissBase *= 2;
        slowmem.tailoredMissExtra *= 2;
        slowmem.compressedMissExtra *= 2;
        slowmem.atbMissPenalty *= 2;
        out.push_back({"slowmem", slowmem});
        // Redirect penalties doubled: a deeper front end, the regime
        // that taxes the compressed scheme's extra decode stage.
        fetch::CyclePenalties deeppipe;
        deeppipe.mispredictRefill *= 2;
        deeppipe.mispredictMissBase *= 2;
        deeppipe.compressedDecodeStage *= 2;
        out.push_back({"deeppipe", deeppipe});
        return out;
    }();
    return profiles;
}

const PenaltyProfile &
penaltyProfileByName(const std::string &name)
{
    for (const PenaltyProfile &profile : penaltyProfiles())
        if (profile.name == name)
            return profile;
    TEPIC_FATAL("unknown penalty profile '", name,
                "' (known: paper, slowmem, deeppipe)");
}

SweepGrid
SweepGrid::paperPoint()
{
    return {};
}

SweepGrid
SweepGrid::ci()
{
    SweepGrid grid;
    grid.workloads = {"fir", "gcc"};
    grid.cacheSets = {64, 128, 256};
    grid.cacheWays = {1, 2};
    grid.lineBytes = {32, 64};
    grid.l0CapacityOps = {16, 32};
    grid.atbEntries = {16, 64};
    grid.predictors = {fetch::PredictorKind::kBimodal,
                       fetch::PredictorKind::kGshare,
                       fetch::PredictorKind::kPas};
    return grid;
}

std::string
SweepConfig::key() const
{
    std::string out = fetch::schemeClassName(scheme);
    out += support::shapeSuffix(
        {{"S", sets}, {"W", ways}, {"L", lineBytes}});
    out += "/l0:" + std::to_string(l0Ops);
    out += "/atb:" + std::to_string(atbEntries);
    out += "/p:";
    out += predictorToken(predictor);
    out += "/pen:" + penaltyProfile;
    return out;
}

fetch::FetchConfig
SweepConfig::fetchConfig() const
{
    fetch::FetchConfig config;
    config.scheme = scheme;
    config.cache.sets = sets;
    config.cache.ways = ways;
    config.cache.lineBytes = lineBytes;
    config.l0CapacityOps = l0Ops;
    config.atbEntries = atbEntries;
    config.predictor.kind = predictor;
    config.penalties = penaltyProfileByName(penaltyProfile).penalties;
    return config;
}

std::vector<SweepConfig>
expandConfigs(const SweepGrid &grid)
{
    const std::vector<std::size_t> sizes = {
        grid.schemes.size(),     grid.cacheSets.size(),
        grid.cacheWays.size(),   grid.lineBytes.size(),
        grid.l0CapacityOps.size(), grid.atbEntries.size(),
        grid.predictors.size(),  grid.penaltyProfiles.size(),
    };
    std::vector<SweepConfig> configs;
    std::set<std::string> seen;
    for (const auto &tuple : support::sweep::expandGrid(sizes)) {
        SweepConfig config;
        config.scheme = grid.schemes[tuple[0]];
        config.sets = grid.cacheSets[tuple[1]];
        config.ways = grid.cacheWays[tuple[2]];
        config.lineBytes = grid.lineBytes[tuple[3]];
        config.l0Ops = grid.l0CapacityOps[tuple[4]];
        config.atbEntries = grid.atbEntries[tuple[5]];
        config.predictor = grid.predictors[tuple[6]];
        config.penaltyProfile = grid.penaltyProfiles[tuple[7]];
        // Normalize: only the compressed organisation has an L0
        // buffer, so the dimension collapses for the others — without
        // this, base/tailored points would alias the same hardware
        // under distinct keys and pad the front with duplicates.
        if (config.scheme != fetch::SchemeClass::kCompressed)
            config.l0Ops = 0;
        if (seen.insert(config.key()).second)
            configs.push_back(config);
    }
    return configs;
}

const std::vector<support::sweep::Objective> &
objectives()
{
    using support::sweep::Sense;
    static const std::vector<support::sweep::Objective> objs = {
        {"size_bits", Sense::kMin},
        {"ipc_e6", Sense::kMax},
        {"decoder_transistors", Sense::kMin},
        {"bus_bit_flips", Sense::kMin},
    };
    return objs;
}

support::sweep::Point
aggregatePoint(const AggregateRecord &record)
{
    return {record.key,
            {std::int64_t(record.sizeBits), std::int64_t(record.ipcE6()),
             std::int64_t(record.decoderTransistors),
             std::int64_t(record.busBitFlips)}};
}

namespace {

std::uint64_t
decoderCost(const Artifacts &artifacts, fetch::SchemeClass scheme)
{
    switch (scheme) {
      case fetch::SchemeClass::kBase:
        return 0;  // native 40-bit ops decode for free
      case fetch::SchemeClass::kCompressed:
        return decoder::decoderTransistors(artifacts.fullImage());
      case fetch::SchemeClass::kTailored:
        return decoder::tailoredDecoderTransistors(
            artifacts.tailoredIsa());
    }
    TEPIC_PANIC("bad scheme class");
}

// ---------------------------------------------------------------------------
// Factored evaluation: streams, then the fold (see sweep.hh).

/** Per-fetch flags, 64 fetches to a word; bit f is fetch f. */
using Bits = std::vector<std::uint64_t>;

Bits
zeroBits(std::size_t fetches)
{
    return Bits((fetches + 63) / 64, 0);
}

void
putBit(Bits &bits, std::size_t fetch, bool value)
{
    bits[fetch >> 6] |= std::uint64_t(value) << (fetch & 63);
}

/** One L1 geometry's misses over an access stream. */
struct GeometryStream
{
    Bits l1Miss;
    std::uint64_t l1Misses = 0;
    std::uint64_t missRepair = 0;  ///< Σ over L1 misses of n_lines−1
    bool cacheRecorded = false;
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

/**
 * One L1 access stream (scheme image, line bytes, L0 ops): the L0
 * side every L1 geometry behind the buffer shares, and each
 * geometry's misses.
 */
struct AccessStream
{
    Bits l0Hit;
    std::uint64_t mops = 0;  ///< Σ n_mops
    std::uint64_t ops = 0;   ///< Σ n_ops
    std::vector<GeometryStream> geometries;
};

/**
 * Run @p rep's L0 buffer over @p trace once, and every L1 of
 * @p geometries (its group's sets and ways) in lockstep behind it.
 * With @p record_3c, one LRU stack over line ids classifies every
 * geometry's misses, as the CACHE recorder's one-capacity stack does
 * for its geometry.
 */
AccessStream
recordAccessStream(const sim::BlockTrace &trace,
                   const fetch::FetchTable &table, const SweepConfig &rep,
                   const std::vector<fetch::CacheConfig> &geometries,
                   bool record_3c)
{
    const sim::TraceView events = trace.view();
    const fetch::Att &att = table.att();
    AccessStream access;
    access.l0Hit = zeroBits(events.size());
    std::vector<GeometryStream> &out = access.geometries;
    out.resize(geometries.size());
    fetch::L0Buffer buffer(rep.l0Ops);
    std::vector<fetch::BankedCache> caches;
    std::vector<std::uint32_t> capacities;
    for (std::size_t g = 0; g < geometries.size(); ++g) {
        caches.emplace_back(geometries[g]);
        capacities.push_back(geometries[g].sets * geometries[g].ways);
        out[g].l1Miss = zeroBits(events.size());
        out[g].cacheRecorded = record_3c;
    }
    std::optional<fetch::LruStack> stack;
    std::vector<std::uint32_t> zones;
    if (record_3c) {
        stack.emplace(capacities);
        for (std::uint32_t capacity : capacities)
            zones.push_back(stack->zoneOf(capacity));
    }

    for (std::size_t f = 0; f < events.size(); ++f) {
        const isa::BlockId head = events.block(f);
        const fetch::AttEntry &entry = att.entry(head);
        const fetch::FetchTable::Lines &lines = table.lines(head);
        access.mops += entry.numMops;
        access.ops += entry.numOps;
        // accessMemory(), with the L1 side run once per geometry.
        if (rep.scheme == fetch::SchemeClass::kCompressed &&
            buffer.access(head, entry.numOps)) {
            putBit(access.l0Hit, f, true);
            continue;
        }
        const std::uint32_t verdict =
            stack ? stack->access(lines.first, lines.last) : 0;
        for (std::size_t g = 0; g < caches.size(); ++g) {
            if (caches[g].accessLines(lines.first, lines.last))
                continue;
            GeometryStream &geometry = out[g];
            putBit(geometry.l1Miss, f, true);
            ++geometry.l1Misses;
            geometry.missRepair += lines.count() - 1;
            if (!stack)
                continue;
            switch (fetch::classifyMiss(verdict, zones[g])) {
              case fetch::MissClass::kCompulsory:
                ++geometry.compulsory;
                break;
              case fetch::MissClass::kCapacity:
                ++geometry.capacity;
                break;
              case fetch::MissClass::kConflict:
                ++geometry.conflict;
                break;
            }
        }
    }
    return access;
}

/**
 * The cost stage folded over one control stream and one geometry of
 * an access stream: the bit counts fetch::foldCost needs, then the
 * bus traffic replayed in fetch order — only the fetches that missed
 * the ATB or the L1 move anything, the upload before the fill within
 * a fetch.
 */
TEPIC_POPCNT_CLONES PointMetrics
foldPoint(const ControlStream &control, const AccessStream &access,
          const GeometryStream &geometry, const sim::BlockTrace &trace,
          fetch::FetchTable &table, const fetch::FetchConfig &config)
{
    const sim::TraceView events = trace.view();
    fetch::FoldCounts n;
    n.mops = access.mops;
    n.l1Misses = geometry.l1Misses;
    n.missRepair = geometry.missRepair;
    std::uint64_t mispredicts = 0;
    power::BusModel bus(fetch::kBusWidthBytes);
    for (std::size_t w = 0; w < geometry.l1Miss.size(); ++w) {
        const std::uint64_t wrong = control.mispredict[w];
        const std::uint64_t missed = geometry.l1Miss[w];
        const std::uint64_t served = ~(access.l0Hit[w] | missed);
        const std::uint64_t uploads = control.atbMiss[w];
        mispredicts += std::uint64_t(std::popcount(wrong));
        n.mispredictServed += std::uint64_t(std::popcount(wrong & served));
        n.mispredictMissed += std::uint64_t(std::popcount(wrong & missed));
        n.atbMisses += std::uint64_t(std::popcount(uploads));
        for (std::uint64_t any = uploads | missed; any != 0;
             any &= any - 1) {
            const int b = std::countr_zero(any);
            const isa::BlockId head = events.block(w * 64 + unsigned(b));
            if ((uploads >> b) & 1)
                table.sendUpload(head, bus);
            if ((missed >> b) & 1)
                table.sendFill(head, bus);
        }
    }
    n.mispredictL0 = mispredicts - n.mispredictServed - n.mispredictMissed;
    const fetch::FoldedCost cost =
        fetch::foldCost(config.scheme, n, config.penalties);

    PointMetrics m;
    m.stallCycles = cost.causes.total();
    m.cycles = n.mops + m.stallCycles;
    m.idealCycles = n.mops;
    m.opsDelivered = access.ops;
    m.blocksFetched = events.size();
    m.mispredictStall = cost.causes.mispredict;
    m.refillStall = cost.causes.l1Refill;
    m.decodeStall = cost.causes.decodeStage;
    m.atbStall = cost.causes.atbMiss;
    m.l0SavedCycles = cost.l0Saved;
    m.l1Hits = events.size() - geometry.l1Misses;
    m.l1Misses = geometry.l1Misses;
    m.busBitFlips = bus.bitFlips();
    m.busBeats = bus.beats();
    m.bytesTransferred = bus.bytesTransferred();
    m.cacheRecorded = geometry.cacheRecorded;
    m.compulsory = geometry.compulsory;
    m.capacity = geometry.capacity;
    m.conflict = geometry.conflict;
    return m;
}

/** What one (workload, scheme) contributes to every point. */
struct SchemeInputs
{
    const isa::Image *image = nullptr;
    std::optional<fetch::Att> att;
    std::uint64_t decoderTransistors = 0;
};

/** The configurations that read one L1 access stream, by geometry. */
struct AccessGroup
{
    std::vector<fetch::CacheConfig> geometries;
    std::vector<std::vector<std::size_t>> members;  ///< per geometry
};

/**
 * The configurations grouped by the streams they read: configs with
 * equal (atb entries, predictor) share a control stream, configs with
 * equal (scheme, line bytes, L0 ops) an L1 access stream, split by
 * their (sets, ways).
 */
struct StreamPlan
{
    std::vector<std::size_t> controlReps;  ///< a config per control stream
    std::vector<std::size_t> controlOf;    ///< config -> control stream
    std::vector<AccessGroup> accessGroups;

    explicit StreamPlan(const std::vector<SweepConfig> &configs)
        : controlOf(configs.size())
    {
        std::map<std::pair<unsigned, fetch::PredictorKind>, std::size_t>
            controls;
        std::map<std::tuple<fetch::SchemeClass, unsigned, unsigned>,
                 std::size_t>
            accesses;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const SweepConfig &config = configs[c];
            const auto [control, new_control] = controls.emplace(
                std::pair(config.atbEntries, config.predictor),
                controls.size());
            if (new_control)
                controlReps.push_back(c);
            controlOf[c] = control->second;
            const auto [access, new_access] = accesses.emplace(
                std::tuple(config.scheme, config.lineBytes, config.l0Ops),
                accesses.size());
            if (new_access)
                accessGroups.emplace_back();
            AccessGroup &group = accessGroups[access->second];
            const fetch::CacheConfig geometry{config.sets, config.ways,
                                              config.lineBytes};
            std::size_t g = 0;
            while (g < group.geometries.size() &&
                   (group.geometries[g].sets != geometry.sets ||
                    group.geometries[g].ways != geometry.ways))
                ++g;
            if (g == group.geometries.size()) {
                group.geometries.push_back(geometry);
                group.members.emplace_back();
            }
            group.members[g].push_back(c);
        }
    }
};

} // namespace

ControlStream
recordControlStream(const fetch::Att &att, const sim::BlockTrace &trace,
                    unsigned atb_entries,
                    const fetch::PredictorConfig &predictor)
{
    const sim::TraceView events = trace.view();
    ControlStream out;
    out.atbMiss = zeroBits(events.size());
    out.mispredict = zeroBits(events.size());
    fetch::ControlStage control(att, atb_entries, predictor);
    for (std::size_t f = 0; f < events.size(); ++f) {
        const sim::TraceEvent event = events.event(f);
        const fetch::ControlOutcome ctl = control.enter(event.block);
        putBit(out.atbMiss, f, !ctl.atbHit);
        putBit(out.mispredict, f, !ctl.predictionCorrect);
        control.leave(event.block, event, false);
    }
    return out;
}

std::vector<PointMetrics>
evaluatePoints(const std::vector<const Artifacts *> &workloads,
               const std::vector<SweepConfig> &configs, bool record_3c,
               unsigned jobs)
{
    const std::size_t config_count = configs.size();
    std::vector<PointMetrics> out(workloads.size() * config_count);
    if (out.empty())
        return out;
    const StreamPlan plan(configs);
    const std::size_t control_count = plan.controlReps.size();

    // One ATT and one decoder cost per (workload, scheme).
    std::vector<std::array<SchemeInputs, 3>> inputs(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (const SweepConfig &config : configs) {
            SchemeInputs &in = inputs[w][std::size_t(config.scheme)];
            if (in.att)
                continue;
            in.image = &imageFor(*workloads[w], config.scheme);
            in.att.emplace(fetch::Att::build(
                *in.image, workloads[w]->compiled.program));
            in.decoderTransistors =
                decoderCost(*workloads[w], config.scheme);
        }
    }

    std::optional<support::ThreadPool> pool;
    if (jobs != 1)
        pool.emplace(jobs);
    const auto run = [&](std::size_t count,
                         const std::function<void(std::size_t)> &body) {
        if (pool) {
            pool->parallelFor(count, body);
            return;
        }
        for (std::size_t i = 0; i < count; ++i)
            body(i);
    };

    // Phase 1: the control streams. The ATB reads only the program's
    // CFG through the ATT, so any swept scheme's ATT serves.
    std::vector<ControlStream> controls(workloads.size() * control_count);
    run(controls.size(), [&](std::size_t task) {
        const std::size_t w = task / control_count;
        const SweepConfig &rep =
            configs[plan.controlReps[task % control_count]];
        const auto with_att = std::find_if(
            inputs[w].begin(), inputs[w].end(),
            [](const SchemeInputs &in) { return in.att.has_value(); });
        controls[task] = recordControlStream(
            *with_att->att, workloads[w]->trace(), rep.atbEntries,
            rep.fetchConfig().predictor);
    });

    // Phase 2: the L1 access streams, longest trace first, each with
    // every geometry of its group in lockstep; each geometry is folded
    // into every point that reads it, then the task's bits are dropped.
    const std::size_t group_count = plan.accessGroups.size();
    std::vector<std::size_t> tasks(workloads.size() * group_count);
    std::iota(tasks.begin(), tasks.end(), std::size_t(0));
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](std::size_t a, std::size_t b) {
                         return workloads[a / group_count]
                                    ->trace().events.size() >
                                workloads[b / group_count]
                                    ->trace().events.size();
                     });
    run(tasks.size(), [&](std::size_t i) {
        const std::size_t w = tasks[i] / group_count;
        const AccessGroup &group = plan.accessGroups[tasks[i] % group_count];
        const SweepConfig &rep = configs[group.members.front().front()];
        const sim::BlockTrace &trace = workloads[w]->trace();
        const SchemeInputs &in = inputs[w][std::size_t(rep.scheme)];
        fetch::FetchTable table(*in.att, *in.image, rep.lineBytes);
        const AccessStream access =
            recordAccessStream(trace, table, rep, group.geometries, record_3c);
        for (std::size_t g = 0; g < group.members.size(); ++g) {
            for (std::size_t c : group.members[g]) {
                PointMetrics &m = out[w * config_count + c];
                m = foldPoint(
                    controls[w * control_count + plan.controlOf[c]],
                    access, access.geometries[g], trace, table,
                    configs[c].fetchConfig());
                m.sizeBits = in.image->bitSize;
                m.decoderTransistors = in.decoderTransistors;
            }
        }
    });
    return out;
}

SweepResult
runSweep(ArtifactEngine &engine, const SweepOptions &options)
{
    const auto start = std::chrono::steady_clock::now();

    // One L1 holds sets x ways lines, counted in 32 bits below: bound
    // the product by the cap every size flag has.
    for (unsigned sets : options.grid.cacheSets) {
        for (unsigned ways : options.grid.cacheWays) {
            if (std::uint64_t(sets) * ways > support::cli::kMaxTableSize)
                TEPIC_FATAL("sweep cache geometry ", sets, " sets x ",
                            ways, " ways exceeds ",
                            support::cli::kMaxTableSize, " lines");
        }
    }

    SweepResult out;
    out.grid = options.grid;
    out.jobs = options.jobs == 0
        ? support::ThreadPool::hardwareThreads()
        : options.jobs;
    out.configs = expandConfigs(options.grid);

    // The images the swept schemes read, plus the dynamic trace.
    ArtifactRequest request{ArtifactKind::kTrace};
    for (fetch::SchemeClass scheme : options.grid.schemes) {
        switch (scheme) {
          case fetch::SchemeClass::kBase:
            request = request.with(ArtifactKind::kBase);
            break;
          case fetch::SchemeClass::kCompressed:
            request = request.with(ArtifactKind::kFull);
            break;
          case fetch::SchemeClass::kTailored:
            request = request.with(ArtifactKind::kTailored);
            break;
        }
    }

    std::vector<BuildRequest> builds;
    for (const std::string &name : options.grid.workloads) {
        const workloads::Workload &workload =
            workloads::workloadByName(name);
        builds.push_back({workload.source, request, {}, name});
    }
    const auto artifacts = engine.buildMany(builds);

    // One slot per (workload, config), filled by the factored
    // evaluation; any fan-out is bit-identical to serial.
    std::vector<const Artifacts *> inputs;
    for (const auto &built : artifacts)
        inputs.push_back(built.get());
    const std::vector<PointMetrics> metrics = evaluatePoints(
        inputs, out.configs, options.record3c, out.jobs);
    const std::size_t config_count = out.configs.size();
    out.points.resize(metrics.size());
    for (std::size_t flat = 0; flat < metrics.size(); ++flat) {
        PointRecord &rec = out.points[flat];
        rec.workload = options.grid.workloads[flat / config_count];
        rec.config = out.configs[flat % config_count];
        rec.key = rec.workload + "/" + rec.config.key();
        rec.metrics = metrics[flat];
    }

    // Aggregate per configuration across workloads (u64 sums; the
    // flat layout above makes point w of config c addressable).
    out.aggregates.reserve(config_count);
    for (std::size_t c = 0; c < config_count; ++c) {
        AggregateRecord agg;
        agg.config = out.configs[c];
        agg.key = out.configs[c].key();
        for (std::size_t w = 0; w < options.grid.workloads.size();
             ++w) {
            const PointMetrics &m =
                out.points[w * config_count + c].metrics;
            ++agg.workloadCount;
            agg.sizeBits += m.sizeBits;
            agg.cycles += m.cycles;
            agg.idealCycles += m.idealCycles;
            agg.opsDelivered += m.opsDelivered;
            agg.stallCycles += m.stallCycles;
            agg.decoderTransistors += m.decoderTransistors;
            agg.busBitFlips += m.busBitFlips;
        }
        out.aggregates.push_back(std::move(agg));
    }

    // Report order is key order, independent of grid spelling.
    std::sort(out.points.begin(), out.points.end(),
              [](const PointRecord &a, const PointRecord &b) {
                  return a.key < b.key;
              });
    std::sort(out.aggregates.begin(), out.aggregates.end(),
              [](const AggregateRecord &a, const AggregateRecord &b) {
                  return a.key < b.key;
              });

    std::vector<support::sweep::Point> objective_points;
    objective_points.reserve(out.aggregates.size());
    for (const AggregateRecord &agg : out.aggregates)
        objective_points.push_back(aggregatePoint(agg));
    out.front =
        support::sweep::paretoFront(objective_points, objectives());

    out.wallMs = std::uint64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return out;
}

// ---------------------------------------------------------------------------
// Report.

namespace {

void
writeConfig(JsonWriter &json, const SweepConfig &config)
{
    json.object(JsonWriter::kInline);
    json.key("scheme").value(fetch::schemeClassName(config.scheme));
    json.key("sets").value(config.sets);
    json.key("ways").value(config.ways);
    json.key("line_bytes").value(config.lineBytes);
    json.key("l0_ops").value(config.l0Ops);
    json.key("atb_entries").value(config.atbEntries);
    json.key("predictor").value(predictorToken(config.predictor));
    json.key("penalties").value(config.penaltyProfile);
    json.end();
}

/** One inline array of @p items, each written as @p token(item). */
template <typename Item, typename Token>
void
writeList(JsonWriter &json, const char *name,
          const std::vector<Item> &items, Token token)
{
    json.key(name).array(JsonWriter::kInline);
    for (const Item &item : items)
        json.value(token(item));
    json.end();
}

/** The structure object: everything exact-gated across --jobs. */
void
writeStructure(JsonWriter &json, const SweepResult &result)
{
    const std::identity same;
    json.object();

    json.key("objectives").array(JsonWriter::kInline);
    for (const auto &objective : objectives()) {
        json.object(JsonWriter::kInline);
        json.key("name").value(objective.name);
        json.key("sense").value(
            support::sweep::senseName(objective.sense));
        json.end();
    }
    json.end();

    const SweepGrid &grid = result.grid;
    json.key("grid").object();
    writeList(json, "workloads", grid.workloads, same);
    writeList(json, "schemes", grid.schemes, fetch::schemeClassName);
    writeList(json, "sets", grid.cacheSets, same);
    writeList(json, "ways", grid.cacheWays, same);
    writeList(json, "line_bytes", grid.lineBytes, same);
    writeList(json, "l0_ops", grid.l0CapacityOps, same);
    writeList(json, "atb_entries", grid.atbEntries, same);
    writeList(json, "predictors", grid.predictors, predictorToken);
    writeList(json, "penalties", grid.penaltyProfiles, same);
    json.end();

    json.key("config_count").value(result.configs.size());
    json.key("point_count").value(result.points.size());

    json.key("points").object();
    for (const PointRecord &p : result.points) {
        const PointMetrics &m = p.metrics;
        json.key(p.key).object(JsonWriter::kInline);
        json.key("workload").value(p.workload);
        json.key("config");
        writeConfig(json, p.config);
        json.key("metrics").object(JsonWriter::kInline);
        json.key("size_bits").value(m.sizeBits);
        json.key("cycles").value(m.cycles);
        json.key("ideal_cycles").value(m.idealCycles);
        json.key("ops_delivered").value(m.opsDelivered);
        json.key("blocks_fetched").value(m.blocksFetched);
        json.key("ipc_e6").value(m.ipcE6());
        json.key("stall").object(JsonWriter::kInline);
        json.key("total").value(m.stallCycles);
        json.key("mispredict").value(m.mispredictStall);
        json.key("l1_refill").value(m.refillStall);
        json.key("decode_stage").value(m.decodeStall);
        json.key("atb_miss").value(m.atbStall);
        json.key("l0_saved").value(m.l0SavedCycles);
        json.end();
        json.key("l1").object(JsonWriter::kInline);
        json.key("hits").value(m.l1Hits);
        json.key("misses").value(m.l1Misses);
        json.end();
        json.key("bus").object(JsonWriter::kInline);
        json.key("bit_flips").value(m.busBitFlips);
        json.key("beats").value(m.busBeats);
        json.key("bytes").value(m.bytesTransferred);
        json.end();
        json.key("decoder_transistors").value(m.decoderTransistors);
        json.key("cache3c").object(JsonWriter::kInline);
        json.key("recorded").value(m.cacheRecorded);
        json.key("compulsory").value(m.compulsory);
        json.key("capacity").value(m.capacity);
        json.key("conflict").value(m.conflict);
        json.end().end().end();
    }
    json.end();

    json.key("aggregates").object();
    for (const AggregateRecord &a : result.aggregates) {
        json.key(a.key).object(JsonWriter::kInline);
        json.key("config");
        writeConfig(json, a.config);
        json.key("workloads").value(a.workloadCount);
        json.key("metrics").object(JsonWriter::kInline);
        json.key("size_bits").value(a.sizeBits);
        json.key("cycles").value(a.cycles);
        json.key("ideal_cycles").value(a.idealCycles);
        json.key("ops_delivered").value(a.opsDelivered);
        json.key("stall_cycles").value(a.stallCycles);
        json.key("ipc_e6").value(a.ipcE6());
        json.key("decoder_transistors").value(a.decoderTransistors);
        json.key("bus_bit_flips").value(a.busBitFlips);
        json.end().end();
    }
    json.end();

    json.key("front").array();
    for (const std::size_t index : result.front)
        json.value(result.aggregates[index].key);
    json.end();

    json.end();
}

} // namespace

std::string
structureJson(const SweepResult &result)
{
    JsonWriter json;
    writeStructure(json, result);
    return json.take();
}

std::string
reportJson(const SweepResult &result, const std::string &name)
{
    JsonWriter json;
    json.object();
    json.key("schema").value("tepic-sweep-v1");
    json.key("name").value(name);
    json.key("structure");
    writeStructure(json, result);

    // --- timing: wall-clock data, band-gated only ---------------------
    const std::uint64_t points_per_sec = result.wallMs
        ? result.points.size() * 1000ull / result.wallMs
        : 0;
    json.key("timing").object();
    json.key("jobs").value(result.jobs);
    json.key("wall_ms").value(result.wallMs);
    json.key("points_per_sec").value(points_per_sec);
    return json.end().end().take();
}

void
exportMetricsTo(support::MetricsRegistry &metrics,
                const SweepResult &result)
{
    metrics.addCounter("sweep.points", result.points.size());
    metrics.addCounter("sweep.configs", result.configs.size());
    metrics.addCounter("sweep.front_size", result.front.size());
    metrics.addCounter("sweep.workloads",
                       result.grid.workloads.size());
}

} // namespace tepic::core::sweep
