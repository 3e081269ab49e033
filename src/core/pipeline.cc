#include "core/pipeline.hh"

#include <cctype>
#include <cstdio>
#include <string>

#include "asmgen/layout.hh"
#include "core/artifact_engine.hh"
#include "decoder/complexity.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
#include "support/trace.hh"

namespace tepic::core {

namespace {

[[noreturn]] void
missingArtifact(ArtifactKind kind)
{
    std::string enumerator = artifactKindName(kind);
    enumerator[0] = char(std::toupper(enumerator[0]));
    TEPIC_FATAL("artifact '", artifactKindName(kind),
                "' was not requested for this build; add "
                "ArtifactKind::k", enumerator,
                " (or use ArtifactRequest::all()) when calling the "
                "ArtifactEngine");
}

} // namespace

const isa::Image &
Artifacts::baseImage() const
{
    if (!base_)
        missingArtifact(ArtifactKind::kBase);
    return *base_;
}

const schemes::CompressedImage &
Artifacts::byteImage() const
{
    if (!byte_)
        missingArtifact(ArtifactKind::kByte);
    return *byte_;
}

const schemes::CompressedImage &
Artifacts::fullImage() const
{
    if (!full_)
        missingArtifact(ArtifactKind::kFull);
    return *full_;
}

const std::vector<schemes::CompressedImage> &
Artifacts::streamImages() const
{
    if (!request_.has(ArtifactKind::kStream))
        missingArtifact(ArtifactKind::kStream);
    return streams_;
}

const schemes::CompressedImage &
Artifacts::streamImage(std::size_t i) const
{
    const auto &streams = streamImages();
    TEPIC_ASSERT(i < streams.size(), "stream index out of range");
    return streams[i];
}

const schemes::TailoredIsa &
Artifacts::tailoredIsa() const
{
    if (!tailoredIsa_)
        missingArtifact(ArtifactKind::kTailored);
    return *tailoredIsa_;
}

const isa::Image &
Artifacts::tailoredImage() const
{
    if (!tailoredImage_)
        missingArtifact(ArtifactKind::kTailored);
    return *tailoredImage_;
}

const fetch::Att &
Artifacts::att() const
{
    if (!att_)
        missingArtifact(ArtifactKind::kAtt);
    return *att_;
}

const sim::BlockTrace &
Artifacts::trace() const
{
    if (!request_.has(ArtifactKind::kTrace))
        missingArtifact(ArtifactKind::kTrace);
    return execution.trace;
}

const codec::Decoder &
Artifacts::decoder(fetch::SchemeClass scheme) const
{
    if (!request_.has(ArtifactKind::kDecoder))
        missingArtifact(ArtifactKind::kDecoder);
    const auto slot_index = unsigned(scheme);
    TEPIC_ASSERT(slot_index < decoderSlots_.byScheme.size(),
                 "bad scheme class");
    auto &slot = decoderSlots_.byScheme[slot_index];
    if (!slot) {
        codec::DecoderSources sources;
        switch (scheme) {
          case fetch::SchemeClass::kBase:
            sources.baseImage = &baseImage();
            break;
          case fetch::SchemeClass::kCompressed:
            sources.compressedImage = &fullImage();
            break;
          case fetch::SchemeClass::kTailored:
            sources.tailoredIsa = &tailoredIsa();
            sources.tailoredImage = &tailoredImage();
            break;
        }
        slot = codec::makeDecoder(scheme, sources);
    }
    return *slot;
}

std::size_t
Artifacts::bestStreamBySize() const
{
    const auto &streams = streamImages();
    TEPIC_ASSERT(!streams.empty(), "no stream images built");
    std::size_t best = 0;
    for (std::size_t i = 1; i < streams.size(); ++i)
        if (streams[i].image.bitSize < streams[best].image.bitSize) {
            best = i;
        }
    return best;
}

std::size_t
Artifacts::bestStreamByDecoder() const
{
    const auto &streams = streamImages();
    TEPIC_ASSERT(!streams.empty(), "no stream images built");
    std::size_t best = 0;
    std::uint64_t best_cost = decoder::decoderTransistors(streams[0]);
    for (std::size_t i = 1; i < streams.size(); ++i) {
        const std::uint64_t cost =
            decoder::decoderTransistors(streams[i]);
        if (cost < best_cost) {
            best = i;
            best_cost = cost;
        }
    }
    return best;
}

Artifacts
buildArtifacts(const std::string &source, const PipelineConfig &config)
{
    ArtifactRequest request = ArtifactRequest::all();
    if (!config.buildAllStreamConfigs)
        request = request.without(ArtifactKind::kStream);
    return ArtifactEngine::buildUncached(source, request, config);
}

const isa::Image &
imageFor(const Artifacts &artifacts, fetch::SchemeClass scheme)
{
    switch (scheme) {
      case fetch::SchemeClass::kBase:
        return artifacts.baseImage();
      case fetch::SchemeClass::kCompressed:
        return artifacts.fullImage().image;
      case fetch::SchemeClass::kTailored:
        return artifacts.tailoredImage();
    }
    TEPIC_PANIC("bad scheme class");
}

namespace {

/**
 * Fold one simulation's aggregates into the process metrics, keyed
 * by scheme. The fetch simulator is deterministic, so every counter
 * here is in the metrics schema's deterministic section.
 */
void
recordFetchMetrics(fetch::SchemeClass scheme,
                   const fetch::FetchStats &stats)
{
    auto &m = support::MetricsRegistry::global();
    const std::string prefix =
        std::string("fetch.") + fetch::schemeClassName(scheme) + ".";
    m.addCounter(prefix + "blocks_fetched", stats.blocksFetched);
    m.addCounter(prefix + "cycles", stats.cycles);
    m.addCounter(prefix + "ideal_cycles", stats.idealCycles);
    m.addCounter(prefix + "ops_delivered", stats.opsDelivered);
    m.addCounter(prefix + "l1_hits", stats.l1Hits);
    m.addCounter(prefix + "l1_misses", stats.l1Misses);
    m.addCounter(prefix + "l0_hits", stats.l0Hits);
    m.addCounter(prefix + "l0_misses", stats.l0Misses);
    m.addCounter(prefix + "atb_hits", stats.atbHits);
    m.addCounter(prefix + "atb_misses", stats.atbMisses);
    m.addCounter(prefix + "pred_correct", stats.predictionsCorrect);
    m.addCounter(prefix + "pred_wrong", stats.predictionsWrong);
    m.addCounter(prefix + "stall_cycles", stats.stallCycles);
    // Per-cause attribution: every fetch.<scheme>.stall.<cause>
    // counter tiles stall_cycles exactly (tested invariant).
    m.addCounter(prefix + "stall.mispredict",
                 stats.mispredictStallCycles);
    m.addCounter(prefix + "stall.l1_refill", stats.refillStallCycles);
    m.addCounter(prefix + "stall.decode_stage",
                 stats.decodeStallCycles);
    m.addCounter(prefix + "stall.atb_miss", stats.atbStallCycles);
    // A saving, not a stall — outside the stall.* tiling sum.
    m.addCounter(prefix + "l0_saved_cycles", stats.l0SavedCycles);
    m.addCounter(prefix + "atb_stall_cycles", stats.atbStallCycles);
    m.addCounter(prefix + "lines_transferred", stats.linesTransferred);
    m.addCounter(prefix + "bus_bit_flips", stats.busBitFlips);
    m.addCounter(prefix + "bytes_transferred", stats.bytesTransferred);
    if (stats.stallHistogram.total() > 0) {
        m.mergeHistogram(prefix + "stall_cycles_hist",
                         stats.stallHistogram);
        m.mergeHistogram(prefix + "stall.mispredict_hist",
                         stats.mispredictHistogram);
        m.mergeHistogram(prefix + "stall.l1_refill_hist",
                         stats.refillHistogram);
        m.mergeHistogram(prefix + "stall.decode_stage_hist",
                         stats.decodeHistogram);
        m.mergeHistogram(prefix + "stall.atb_miss_hist",
                         stats.atbHistogram);
    }
}

/**
 * Fold one simulation's cache-behavior record into the process
 * metrics. Every counter and histogram here is a pure function of
 * (trace, config) — deterministic, exact-gated. The *_rate gauges
 * are derived ratios and band-gated by naming convention
 * (tools/tepic_reports.py masks `cache.*_rate` values like
 * `prof.*_per_sec`).
 */
void
recordCacheMetrics(fetch::SchemeClass scheme,
                   const fetch::CacheStats &cs)
{
    cs.assertTiling();
    auto &m = support::MetricsRegistry::global();
    const std::string prefix =
        std::string("cache.") + fetch::schemeClassName(scheme) + ".";
    m.addCounter(prefix + "accesses", cs.accesses);
    m.addCounter(prefix + "hits", cs.hits);
    m.addCounter(prefix + "misses", cs.misses);
    // The 3C split; tiles cache.<scheme>.misses exactly (tested).
    m.addCounter(prefix + "miss.compulsory", cs.compulsory);
    m.addCounter(prefix + "miss.capacity", cs.capacity);
    m.addCounter(prefix + "miss.conflict", cs.conflict);
    m.addCounter(prefix + "l0_bypasses", cs.l0Bypasses);
    m.addCounter(prefix + "line.fills", cs.lineFills);
    m.addCounter(prefix + "line.evictions", cs.lineEvictions);
    m.addCounter(prefix + "line.dead_on_fill", cs.deadOnFill);
    m.addCounter(prefix + "reuse.samples", cs.reuseSamples);
    m.addCounter(prefix + "reuse.cold", cs.reuseCold);
    if (cs.reuseLog2Histogram.total() > 0) {
        m.mergeHistogram(prefix + "reuse.log2_hist",
                         cs.reuseLog2Histogram);
    }
    if (cs.evictionUseHistogram.total() > 0) {
        m.mergeHistogram(prefix + "line.eviction_use_hist",
                         cs.evictionUseHistogram);
    }
    m.setGauge(prefix + "miss_rate", cs.missRate());
    m.setGauge(prefix + "dead_on_fill_rate", cs.deadOnFillRate());
}

/**
 * Fold one simulation's dynamic-behavior record into the process
 * metrics. Counters are pure functions of (trace, config) —
 * deterministic, exact-gated. The *_rate gauges are derived ratios
 * and masked by naming convention (tools/tepic_reports.py treats
 * `hot.*_rate` like `cache.*_rate`).
 */
void
recordHotMetrics(fetch::SchemeClass scheme, const fetch::HotStats &hs)
{
    hs.assertTiling();
    auto &m = support::MetricsRegistry::global();
    const std::string prefix =
        std::string("hot.") + fetch::schemeClassName(scheme) + ".";
    m.addCounter(prefix + "blocks_simulated", hs.blocksSimulated);
    m.addCounter(prefix + "cycles", hs.cycles);
    m.addCounter(prefix + "stall_cycles", hs.stallCycles);
    m.addCounter(prefix + "static_blocks", hs.staticBlocks);
    m.addCounter(prefix + "executed_blocks", hs.executedBlocks());
    // Dynamic-fetch concentration: how much of the trace the hottest
    // 1/10 static blocks cover (tepic_diff.py harvests the trend).
    m.addCounter(prefix + "coverage.top1_fetches", hs.topCoverage(1));
    m.addCounter(prefix + "coverage.top10_fetches",
                 hs.topCoverage(10));
    // Branch-site totals; the per-site split lives in the HOT report.
    m.addCounter(prefix + "branch.taken", hs.taken);
    m.addCounter(prefix + "branch.not_taken", hs.notTaken);
    m.addCounter(prefix + "branch.mispredicts", hs.mispredicts);
    m.addCounter(prefix + "branch.mispredict_stall_cycles",
                 hs.mispredictStallCycles);
    m.addCounter(prefix + "branch.unconsumed_mispredicts",
                 hs.unconsumedMispredicts);
    m.setGauge(prefix + "top10_coverage_rate",
               hs.blocksSimulated ? double(hs.topCoverage(10)) /
                                        double(hs.blocksSimulated)
                                  : 0.0);
    m.setGauge(prefix + "mispredict_rate", hs.mispredictRate());
}

} // namespace

fetch::FetchStats
runFetch(const Artifacts &artifacts, fetch::SchemeClass scheme,
         std::optional<fetch::FetchConfig> config,
         const std::string &label)
{
    TEPIC_TRACE_SPAN("fetch.simulate", "fetch");
    fetch::FetchConfig fetch_config =
        config ? *config : fetch::FetchConfig::paper(scheme);

    // A live cachestats session turns recording on (bench print
    // phase, tepicc --cache-report=); callers that enabled it in
    // their own config are honored as-is.
    if (fetch::cachestats::enabled())
        fetch_config.cacheStats.enabled = true;
    if (fetch::hotstats::enabled())
        fetch_config.hotStats.enabled = true;

    // Attach a decoded-block cache unless the caller brought one.
    // Decoder construction happens here, *before* the profiled fetch
    // window opens, so prof.fetch.<scheme>.cpu_ns measures the
    // simulation loop only (the engine's kDecoder pre-warm makes the
    // memoized path free; the fallback builds a local decoder).
    std::unique_ptr<const codec::Decoder> local_decoder;
    std::optional<codec::DecodedBlockCache> local_cache;
    if (fetch_config.decodedBlocks == nullptr) {
        if (artifacts.has(ArtifactKind::kDecoder)) {
            local_cache.emplace(artifacts.decoder(scheme));
        } else {
            codec::DecoderSources sources;
            switch (scheme) {
              case fetch::SchemeClass::kBase:
                sources.baseImage = &artifacts.baseImage();
                break;
              case fetch::SchemeClass::kCompressed:
                sources.compressedImage = &artifacts.fullImage();
                break;
              case fetch::SchemeClass::kTailored:
                sources.tailoredIsa = &artifacts.tailoredIsa();
                sources.tailoredImage = &artifacts.tailoredImage();
                break;
            }
            local_decoder = codec::makeDecoder(scheme, sources);
            local_cache.emplace(*local_decoder);
        }
        fetch_config.decodedBlocks = &*local_cache;
    }
    codec::DecodedBlockCache &cache = *fetch_config.decodedBlocks;
    const std::uint64_t hits_before = cache.hits();
    const std::uint64_t misses_before = cache.misses();
    const std::uint64_t decoded_before = cache.opsDecoded();

    support::prof::ProfScope prof(support::prof::Phase::kFetchSim);
    const std::uint64_t cpu_begin = support::prof::threadCpuNowNs();
    auto stats = fetch::simulateFetch(imageFor(artifacts, scheme),
                                      artifacts.compiled.program,
                                      artifacts.trace(),
                                      fetch_config);
    recordFetchMetrics(scheme, stats);
    if (stats.cacheStats.recorded) {
        recordCacheMetrics(scheme, stats.cacheStats);
        fetch::cachestats::record(label, scheme, stats.cacheStats);
    }
    if (stats.hotStats.recorded) {
        fetch::HotStats &hs = stats.hotStats;
        // The recorder's totals must reproduce the architectural
        // counters exactly — the tiling sums below it are then
        // anchored to the simulation itself. Attribution is per
        // fetch (per unit traversal under a fetch-unit partition).
        TEPIC_ASSERT(hs.blocksSimulated == stats.fetches,
                     "hot record disagrees with the fetch count");
        TEPIC_ASSERT(hs.cycles == stats.cycles &&
                         hs.stallCycles == stats.stallCycles,
                     "hot record disagrees with the cycle totals");
        TEPIC_ASSERT(hs.mispredictStallCycles ==
                         stats.mispredictStallCycles,
                     "per-site stalls must tile the mispredict stall "
                     "counter");
        TEPIC_ASSERT(hs.mispredicts == stats.predictionsWrong +
                                           hs.unconsumedMispredicts,
                     "per-site mispredicts must tile predictionsWrong "
                     "(+ the final unconsumed prediction)");
        // Attach function attribution (blockSource is the compiler's
        // global-block -> (function, local block) map) so the HOT
        // report can roll hotness up per function.
        const auto &sources = artifacts.compiled.blockSource;
        if (sources.size() == hs.staticBlocks) {
            hs.functionNames.clear();
            for (const auto &fn : artifacts.compiled.emitted.functions)
                hs.functionNames.push_back(fn.name);
            hs.blockFunction.resize(sources.size());
            for (std::size_t b = 0; b < sources.size(); ++b)
                hs.blockFunction[b] = sources[b].first;
        }
        recordHotMetrics(scheme, hs);
        fetch::hotstats::record(label, scheme, hs);
    }
    // Deterministic work units feeding prof.blocks_simulated_per_sec
    // and the per-scheme prof.fetch.<scheme>.blocks_per_sec gauges;
    // the cpu-time delta lands in the env-dependent runtime section.
    auto &m = support::MetricsRegistry::global();
    m.addCounter("prof.work.blocks_simulated", stats.blocksFetched);
    const std::string scheme_name = fetch::schemeClassName(scheme);
    m.addCounter("prof.work.fetch." + scheme_name +
                     ".blocks_simulated",
                 stats.blocksFetched);
    m.addRuntime("prof.fetch." + scheme_name + ".cpu_ns",
                 support::prof::threadCpuNowNs() - cpu_begin);
    // Host-side decode cache effectiveness (deterministic: a function
    // of the trace and the static block set — this run's deltas, so a
    // caller-owned cache reused across runs charges each run its own
    // accesses).
    m.addCounter("codec." + scheme_name + ".block_cache_hits",
                 cache.hits() - hits_before);
    m.addCounter("codec." + scheme_name + ".block_cache_misses",
                 cache.misses() - misses_before);
    m.addCounter("codec." + scheme_name + ".ops_decoded",
                 cache.opsDecoded() - decoded_before);
    return stats;
}

std::vector<SchemeSummary>
summarise(const Artifacts &artifacts)
{
    std::vector<SchemeSummary> rows;
    const double base_bits =
        double(artifacts.compiled.program.baselineBits());

    if (artifacts.has(ArtifactKind::kBase)) {
        rows.push_back(
            {"base", artifacts.baseImage().bitSize, 1.0, 0});
    }

    if (artifacts.has(ArtifactKind::kByte)) {
        SchemeSummary byte_row;
        byte_row.name = "huff-byte";
        byte_row.codeBits = artifacts.byteImage().image.bitSize;
        byte_row.ratioVsBase = double(byte_row.codeBits) / base_bits;
        byte_row.decoderTransistors =
            decoder::decoderTransistors(artifacts.byteImage());
        rows.push_back(byte_row);
    }

    if (artifacts.has(ArtifactKind::kStream)) {
        for (const auto &stream : artifacts.streamImages()) {
            SchemeSummary row;
            row.name = "huff-stream:" + stream.streamConfig.name;
            row.codeBits = stream.image.bitSize;
            row.ratioVsBase = double(row.codeBits) / base_bits;
            row.decoderTransistors =
                decoder::decoderTransistors(stream);
            rows.push_back(row);
        }
    }

    if (artifacts.has(ArtifactKind::kFull)) {
        SchemeSummary full_row;
        full_row.name = "huff-full";
        full_row.codeBits = artifacts.fullImage().image.bitSize;
        full_row.ratioVsBase = double(full_row.codeBits) / base_bits;
        full_row.decoderTransistors =
            decoder::decoderTransistors(artifacts.fullImage());
        rows.push_back(full_row);
    }

    if (artifacts.has(ArtifactKind::kTailored)) {
        SchemeSummary tailored_row;
        tailored_row.name = "tailored";
        tailored_row.codeBits = artifacts.tailoredImage().bitSize;
        tailored_row.ratioVsBase =
            double(tailored_row.codeBits) / base_bits;
        tailored_row.decoderTransistors =
            decoder::tailoredDecoderTransistors(
                artifacts.tailoredIsa());
        rows.push_back(tailored_row);
    }
    return rows;
}

namespace {

void
checkSameOps(const std::vector<std::vector<isa::Operation>> &decoded,
             const isa::VliwProgram &program, const char *what)
{
    TEPIC_ASSERT(decoded.size() == program.blocks().size(),
                 what, ": block count mismatch");
    for (const auto &blk : program.blocks()) {
        const auto &ops = decoded[blk.id];
        std::size_t i = 0;
        for (const auto &mop : blk.mops) {
            for (const auto &op : mop.ops()) {
                TEPIC_ASSERT(i < ops.size(), what,
                             ": short block ", blk.id);
                TEPIC_ASSERT(ops[i] == op, what,
                             ": op mismatch in block ", blk.id,
                             " at op ", i, ": ", ops[i].toString(),
                             " vs ", op.toString());
                ++i;
            }
        }
        TEPIC_ASSERT(i == ops.size(), what, ": long block ", blk.id);
    }
}

} // namespace

void
verifyRoundTrips(const Artifacts &artifacts)
{
    const auto &program = artifacts.compiled.program;
    if (artifacts.has(ArtifactKind::kBase)) {
        checkSameOps(
            codec::makeBaseDecoder(artifacts.baseImage())->decodeAll(),
            program, "baseline");
    }
    if (artifacts.has(ArtifactKind::kByte)) {
        checkSameOps(
            codec::makeDecoder(artifacts.byteImage())->decodeAll(),
            program, "huff-byte");
    }
    if (artifacts.has(ArtifactKind::kFull)) {
        checkSameOps(
            codec::makeDecoder(artifacts.fullImage())->decodeAll(),
            program, "huff-full");
    }
    if (artifacts.has(ArtifactKind::kStream)) {
        for (const auto &stream : artifacts.streamImages())
            checkSameOps(codec::makeDecoder(stream)->decodeAll(),
                         program, stream.image.scheme.c_str());
    }
    if (artifacts.has(ArtifactKind::kTailored)) {
        checkSameOps(codec::makeDecoder(artifacts.tailoredIsa(),
                                        artifacts.tailoredImage())
                         ->decodeAll(),
                     program, "tailored");
    }
}

std::vector<SizeEntry>
collectSizeLedgers(const Artifacts &artifacts)
{
    std::vector<SizeEntry> entries;
    const auto add_image = [&entries](const isa::Image &image) {
        // The producer already asserted tiling; re-assert at the
        // consumption boundary so a ledger that was mutated (or
        // never charged) after the build fails loudly here too.
        image.ledger.assertTiles(image.bitSize, image.scheme);
        entries.push_back(SizeEntry{image.scheme, image.bitSize,
                                    &image.ledger, &image});
    };
    if (artifacts.has(ArtifactKind::kBase))
        add_image(artifacts.baseImage());
    if (artifacts.has(ArtifactKind::kByte))
        add_image(artifacts.byteImage().image);
    if (artifacts.has(ArtifactKind::kStream))
        for (const auto &stream : artifacts.streamImages())
            add_image(stream.image);
    if (artifacts.has(ArtifactKind::kFull))
        add_image(artifacts.fullImage().image);
    if (artifacts.has(ArtifactKind::kTailored))
        add_image(artifacts.tailoredImage());
    if (artifacts.has(ArtifactKind::kAtt)) {
        const fetch::Att &att = artifacts.att();
        att.ledger().assertTiles(att.totalBits(), "att");
        entries.push_back(SizeEntry{"att", att.totalBits(),
                                    &att.ledger(), nullptr});
    }
    return entries;
}

namespace {

/** Merge one compressed image's code-length distribution(s). */
void
recordCodelenHistogram(const schemes::CompressedImage &compressed,
                       support::MetricsRegistry &metrics)
{
    support::Histogram lengths;
    for (const auto &table : compressed.tables)
        lengths.merge(table.lengthHistogram());
    metrics.mergeHistogram(
        "size." + compressed.image.scheme + ".codelen", lengths);
}

} // namespace

void
recordSizeMetrics(const Artifacts &artifacts,
                  support::MetricsRegistry &metrics)
{
    for (const auto &entry : collectSizeLedgers(artifacts))
        entry.ledger->exportTo(metrics, "size." + entry.scheme);
    if (artifacts.has(ArtifactKind::kByte))
        recordCodelenHistogram(artifacts.byteImage(), metrics);
    if (artifacts.has(ArtifactKind::kStream))
        for (const auto &stream : artifacts.streamImages())
            recordCodelenHistogram(stream, metrics);
    if (artifacts.has(ArtifactKind::kFull))
        recordCodelenHistogram(artifacts.fullImage(), metrics);
}

void
recordSizeMetrics(const Artifacts &artifacts)
{
    recordSizeMetrics(artifacts, support::MetricsRegistry::global());
}

std::string
sizeReportJson(const std::string &name,
               const std::vector<SizeReportEntry> &entries)
{
    std::string out = "{\n  \"schema\": \"tepic-size-v1\",\n";
    out += "  \"name\": " + support::jsonQuote(name) + ",\n";
    out += "  \"workloads\": {";
    bool first_workload = true;
    for (const auto &entry : entries) {
        TEPIC_ASSERT(entry.artifacts != nullptr,
                     "null artifacts in size report entry");
        const Artifacts &artifacts = *entry.artifacts;
        std::vector<std::string> function_names;
        for (const auto &fn : artifacts.compiled.emitted.functions)
            function_names.push_back(fn.name);

        out += first_workload ? "\n" : ",\n";
        first_workload = false;
        out += "    " + support::jsonQuote(entry.workload) +
               ": {\n      \"schemes\": {";
        bool first_scheme = true;
        for (const auto &size : collectSizeLedgers(artifacts)) {
            out += first_scheme ? "\n" : ",\n";
            first_scheme = false;
            out += "        " + support::jsonQuote(size.scheme) +
                   ": {\n";
            out += "          \"total_bits\": " +
                   std::to_string(size.totalBits) + ",\n";
            out += "          \"tree\": " +
                   size.ledger->toJson(10);
            if (size.image != nullptr) {
                // Orthogonal view: the same bits attributed to the
                // functions/blocks that own them (tiles total_bits
                // too — asserted inside the rollup).
                const auto rollup = asmgen::imageLayoutRollup(
                    *size.image, artifacts.compiled.blockSource,
                    function_names);
                out += ",\n          \"by_function\": " +
                       rollup.toJson(10);
            }
            out += "\n        }";
        }
        out += first_scheme ? "}\n    }" : "\n      }\n    }";
    }
    out += first_workload ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

bool
writeSizeReport(const std::string &path, const std::string &name,
                const std::vector<SizeReportEntry> &entries)
{
    const std::string json = sizeReportJson(name, entries);
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        TEPIC_WARN("size report: cannot write '", path, "'");
        return false;
    }
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    return true;
}

} // namespace tepic::core
