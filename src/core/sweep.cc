#include "core/sweep.hh"

#include <algorithm>
#include <chrono>
#include <set>

#include "core/pipeline.hh"
#include "decoder/complexity.hh"
#include "support/keys.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "workloads/workload.hh"

namespace tepic::core::sweep {

using support::jsonQuote;

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
    TEPIC_FATAL("unknown penalty profile: ", name,
                " (known: paper, slowmem, deeppipe)");
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
SweepConfig::fetchConfig(bool record_3c) const
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
    config.cacheStats.enabled = record_3c;
    // The sweep consumes only the 3C split; sample the reuse stream
    // coarsely so recording does not dominate a 500+-point grid.
    config.cacheStats.reuseSampleEvery = 64;
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

PointRecord
evaluatePoint(const std::string &workload, const Artifacts &artifacts,
              const SweepConfig &config, bool record_3c)
{
    const fetch::FetchConfig fetch_config =
        config.fetchConfig(record_3c);
    const isa::Image &image = imageFor(artifacts, config.scheme);
    const fetch::FetchStats stats =
        fetch::simulateFetch(image, artifacts.compiled.program,
                             artifacts.trace(), fetch_config);

    PointRecord rec;
    rec.workload = workload;
    rec.config = config;
    rec.key = workload + "/" + config.key();

    PointMetrics &m = rec.metrics;
    m.sizeBits = image.bitSize;
    m.cycles = stats.cycles;
    m.idealCycles = stats.idealCycles;
    m.opsDelivered = stats.opsDelivered;
    m.blocksFetched = stats.blocksFetched;
    m.stallCycles = stats.stallCycles;
    m.mispredictStall = stats.mispredictStallCycles;
    m.refillStall = stats.refillStallCycles;
    m.decodeStall = stats.decodeStallCycles;
    m.atbStall = stats.atbStallCycles;
    m.l0SavedCycles = stats.l0SavedCycles;
    m.l1Hits = stats.l1Hits;
    m.l1Misses = stats.l1Misses;
    m.busBitFlips = stats.busBitFlips;
    m.busBeats = stats.busBeats;
    m.bytesTransferred = stats.bytesTransferred;
    m.decoderTransistors = decoderCost(artifacts, config.scheme);
    m.cacheRecorded = stats.cacheStats.recorded;
    if (stats.cacheStats.recorded) {
        m.compulsory = stats.cacheStats.compulsory;
        m.capacity = stats.cacheStats.capacity;
        m.conflict = stats.cacheStats.conflict;
    }
    return rec;
}

} // namespace

SweepResult
runSweep(ArtifactEngine &engine, const SweepOptions &options)
{
    const auto start = std::chrono::steady_clock::now();

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

    // One slot per (workload, config); every simulation writes only
    // its own slot, so any fan-out is bit-identical to serial.
    const std::size_t config_count = out.configs.size();
    const std::size_t point_count =
        config_count * options.grid.workloads.size();
    out.points.resize(point_count);
    const auto evalOne = [&](std::size_t flat) {
        const std::size_t w = flat / config_count;
        const std::size_t c = flat % config_count;
        out.points[flat] =
            evaluatePoint(options.grid.workloads[w], *artifacts[w],
                          out.configs[c], options.record3c);
    };
    if (out.jobs <= 1 || point_count <= 1) {
        for (std::size_t flat = 0; flat < point_count; ++flat)
            evalOne(flat);
    } else {
        support::ThreadPool pool(out.jobs);
        pool.parallelFor(point_count, evalOne);
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
appendStringList(std::string &out,
                 const std::vector<std::string> &items)
{
    out += "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(items[i]);
    }
    out += "]";
}

void
appendUnsignedList(std::string &out, const std::vector<unsigned> &items)
{
    out += "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(items[i]);
    }
    out += "]";
}

void
appendConfig(std::string &out, const SweepConfig &config)
{
    out += "{\"scheme\": " +
           jsonQuote(fetch::schemeClassName(config.scheme));
    out += ", \"sets\": " + std::to_string(config.sets);
    out += ", \"ways\": " + std::to_string(config.ways);
    out += ", \"line_bytes\": " + std::to_string(config.lineBytes);
    out += ", \"l0_ops\": " + std::to_string(config.l0Ops);
    out += ", \"atb_entries\": " + std::to_string(config.atbEntries);
    out += ", \"predictor\": " +
           jsonQuote(predictorToken(config.predictor));
    out += ", \"penalties\": " + jsonQuote(config.penaltyProfile);
    out += "}";
}

/** The structure object, lines prefixed by @p indent. */
std::string
structureObject(const SweepResult &result, const std::string &indent)
{
    const std::string i1 = indent + "  ";
    const std::string i2 = i1 + "  ";
    std::string out = "{\n";

    out += i1 + "\"objectives\": [";
    const auto &objs = objectives();
    for (std::size_t i = 0; i < objs.size(); ++i) {
        if (i)
            out += ", ";
        out += "{\"name\": " + jsonQuote(objs[i].name) +
               ", \"sense\": " +
               jsonQuote(support::sweep::senseName(objs[i].sense)) +
               "}";
    }
    out += "],\n";

    out += i1 + "\"grid\": {\n";
    out += i2 + "\"workloads\": ";
    appendStringList(out, result.grid.workloads);
    out += ",\n" + i2 + "\"schemes\": [";
    for (std::size_t i = 0; i < result.grid.schemes.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(
            fetch::schemeClassName(result.grid.schemes[i]));
    }
    out += "],\n" + i2 + "\"sets\": ";
    appendUnsignedList(out, result.grid.cacheSets);
    out += ",\n" + i2 + "\"ways\": ";
    appendUnsignedList(out, result.grid.cacheWays);
    out += ",\n" + i2 + "\"line_bytes\": ";
    appendUnsignedList(out, result.grid.lineBytes);
    out += ",\n" + i2 + "\"l0_ops\": ";
    appendUnsignedList(out, result.grid.l0CapacityOps);
    out += ",\n" + i2 + "\"atb_entries\": ";
    appendUnsignedList(out, result.grid.atbEntries);
    out += ",\n" + i2 + "\"predictors\": [";
    for (std::size_t i = 0; i < result.grid.predictors.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonQuote(predictorToken(result.grid.predictors[i]));
    }
    out += "],\n" + i2 + "\"penalties\": ";
    appendStringList(out, result.grid.penaltyProfiles);
    out += "\n" + i1 + "},\n";

    out += i1 + "\"config_count\": " +
           std::to_string(result.configs.size()) + ",\n";
    out += i1 + "\"point_count\": " +
           std::to_string(result.points.size()) + ",\n";

    out += i1 + "\"points\": {";
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const PointRecord &p = result.points[i];
        const PointMetrics &m = p.metrics;
        out += i ? ",\n" + i2 : "\n" + i2;
        out += jsonQuote(p.key) + ": {\"workload\": " +
               jsonQuote(p.workload);
        out += ", \"config\": ";
        appendConfig(out, p.config);
        out += ", \"metrics\": {";
        out += "\"size_bits\": " + std::to_string(m.sizeBits);
        out += ", \"cycles\": " + std::to_string(m.cycles);
        out += ", \"ideal_cycles\": " + std::to_string(m.idealCycles);
        out += ", \"ops_delivered\": " +
               std::to_string(m.opsDelivered);
        out += ", \"blocks_fetched\": " +
               std::to_string(m.blocksFetched);
        out += ", \"ipc_e6\": " + std::to_string(m.ipcE6());
        out += ", \"stall\": {\"total\": " +
               std::to_string(m.stallCycles);
        out += ", \"mispredict\": " +
               std::to_string(m.mispredictStall);
        out += ", \"l1_refill\": " + std::to_string(m.refillStall);
        out += ", \"decode_stage\": " + std::to_string(m.decodeStall);
        out += ", \"atb_miss\": " + std::to_string(m.atbStall);
        out += ", \"l0_saved\": " + std::to_string(m.l0SavedCycles);
        out += "}, \"l1\": {\"hits\": " + std::to_string(m.l1Hits);
        out += ", \"misses\": " + std::to_string(m.l1Misses);
        out += "}, \"bus\": {\"bit_flips\": " +
               std::to_string(m.busBitFlips);
        out += ", \"beats\": " + std::to_string(m.busBeats);
        out += ", \"bytes\": " + std::to_string(m.bytesTransferred);
        out += "}, \"decoder_transistors\": " +
               std::to_string(m.decoderTransistors);
        out += ", \"cache3c\": {\"recorded\": ";
        out += m.cacheRecorded ? "true" : "false";
        out += ", \"compulsory\": " + std::to_string(m.compulsory);
        out += ", \"capacity\": " + std::to_string(m.capacity);
        out += ", \"conflict\": " + std::to_string(m.conflict);
        out += "}}}";
    }
    out += result.points.empty() ? "},\n" : "\n" + i1 + "},\n";

    out += i1 + "\"aggregates\": {";
    for (std::size_t i = 0; i < result.aggregates.size(); ++i) {
        const AggregateRecord &a = result.aggregates[i];
        out += i ? ",\n" + i2 : "\n" + i2;
        out += jsonQuote(a.key) + ": {\"config\": ";
        appendConfig(out, a.config);
        out += ", \"workloads\": " + std::to_string(a.workloadCount);
        out += ", \"metrics\": {";
        out += "\"size_bits\": " + std::to_string(a.sizeBits);
        out += ", \"cycles\": " + std::to_string(a.cycles);
        out += ", \"ideal_cycles\": " + std::to_string(a.idealCycles);
        out += ", \"ops_delivered\": " +
               std::to_string(a.opsDelivered);
        out += ", \"stall_cycles\": " + std::to_string(a.stallCycles);
        out += ", \"ipc_e6\": " + std::to_string(a.ipcE6());
        out += ", \"decoder_transistors\": " +
               std::to_string(a.decoderTransistors);
        out += ", \"bus_bit_flips\": " +
               std::to_string(a.busBitFlips);
        out += "}}";
    }
    out += result.aggregates.empty() ? "},\n" : "\n" + i1 + "},\n";

    out += i1 + "\"front\": [";
    for (std::size_t i = 0; i < result.front.size(); ++i) {
        out += i ? ",\n" + i2 : "\n" + i2;
        out += jsonQuote(result.aggregates[result.front[i]].key);
    }
    out += result.front.empty() ? "]\n" : "\n" + i1 + "]\n";

    out += indent + "}";
    return out;
}

} // namespace

std::string
structureJson(const SweepResult &result)
{
    return structureObject(result, "") + "\n";
}

std::string
reportJson(const SweepResult &result, const std::string &name)
{
    std::string out = "{\n  \"schema\": \"tepic-sweep-v1\",\n";
    out += "  \"name\": " + jsonQuote(name) + ",\n";
    out += "  \"structure\": " + structureObject(result, "  ") + ",\n";

    // --- timing: wall-clock data, band-gated only ---------------------
    const std::uint64_t points_per_sec = result.wallMs
        ? result.points.size() * 1000ull / result.wallMs
        : 0;
    out += "  \"timing\": {\n";
    out += "    \"jobs\": " + std::to_string(result.jobs) + ",\n";
    out += "    \"wall_ms\": " + std::to_string(result.wallMs) + ",\n";
    out += "    \"points_per_sec\": " +
           std::to_string(points_per_sec) + "\n";
    out += "  }\n}\n";
    return out;
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
    metrics.recordTimingMs("sweep.run", double(result.wallMs));
    if (result.wallMs) {
        metrics.setGauge("sweep.points_rate",
                         double(result.points.size()) * 1000.0 /
                             double(result.wallMs));
    }
}

} // namespace tepic::core::sweep
