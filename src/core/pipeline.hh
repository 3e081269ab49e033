/**
 * @file
 * The library's top-level API: request-based artefact construction
 * from tinkerc source (or a named workload).
 *
 * The primary entry point is core::ArtifactEngine
 * (core/artifact_engine.hh): callers describe what they want with an
 * ArtifactRequest and the engine builds exactly that, caching and
 * parallelising across workloads and schemes. This header defines the
 * shared vocabulary:
 *
 *   compile (optionally profile-guided) -> emulate (trace + oracle;
 *   a profile-guided build derives the relaid-out program's trace from
 *   the profile run's)
 *   -> requested images only: baseline / Huffman byte / six streams /
 *   full / tailored ISA + image / ATT
 *
 * Artifacts exposes the results through *checked accessors* — asking
 * for an image that was not requested is a loud, fatal error, never a
 * silently empty object. ArtifactEngine::buildUncached() is the
 * serial, uncached build for callers that want a plain value.
 */

#ifndef TEPIC_CORE_PIPELINE_HH
#define TEPIC_CORE_PIPELINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hh"
#include "compiler/driver.hh"
#include "core/artifact_request.hh"
#include "fetch/att.hh"
#include "fetch/fetch_sim.hh"
#include "isa/baseline.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/tailored.hh"
#include "sim/emulator.hh"

namespace tepic::core {

/**
 * Every setting of one build, and every input of its cache key
 * (pipelineCacheKey). Whether the emulator keeps the block trace is
 * not a setting: the request's kTrace decides it.
 */
struct PipelineConfig
{
    compiler::CompileOptions compile;
    bool profileGuided = true;
    /** The emulator's runaway guard (sim::EmulatorConfig::maxMops). */
    std::uint64_t maxMops = sim::EmulatorConfig{}.maxMops;
};

/**
 * Everything one request asked for, built once per program. The
 * compiled program and its emulation result are always present; the
 * per-scheme artefacts exist only when requested, and their accessors
 * fail loudly otherwise.
 */
struct Artifacts
{
    compiler::CompiledProgram compiled;
    sim::EmulationResult execution;

    /** The (normalized) request this object was built from. */
    ArtifactRequest request() const { return request_; }
    bool has(ArtifactKind kind) const { return request_.has(kind); }

    // Checked accessors: fatal when the kind was not requested.
    const isa::Image &baseImage() const;
    const schemes::CompressedImage &byteImage() const;
    const schemes::CompressedImage &fullImage() const;
    const std::vector<schemes::CompressedImage> &streamImages() const;
    const schemes::CompressedImage &streamImage(std::size_t i) const;
    const schemes::TailoredIsa &tailoredIsa() const;
    const isa::Image &tailoredImage() const;
    const fetch::Att &att() const;   ///< ATT over the Full image
    const sim::BlockTrace &trace() const;

    /**
     * The memoized codec::Decoder for one of the three fetch
     * organisations (requires kDecoder in the request). The decoder
     * references the images held by this Artifacts object.
     */
    const codec::Decoder &decoder(fetch::SchemeClass scheme) const;

    /** Compression ratio of @p image vs the baseline code segment. */
    double
    ratio(const isa::Image &image) const
    {
        return double(image.bitSize) /
               double(compiled.program.baselineBits());
    }

    /** Index of the best-compressing stream configuration. */
    std::size_t bestStreamBySize() const;

    /** Index of the smallest-decoder stream configuration. */
    std::size_t bestStreamByDecoder() const;

  private:
    friend class ArtifactEngine;

    ArtifactRequest request_;
    std::optional<isa::Image> base_;
    std::optional<schemes::CompressedImage> byte_;
    std::optional<schemes::CompressedImage> full_;
    std::vector<schemes::CompressedImage> streams_;  ///< all six
    std::optional<schemes::TailoredIsa> tailoredIsa_;
    std::optional<isa::Image> tailoredImage_;
    std::optional<fetch::Att> att_;

    /**
     * Memoized per-scheme decoders, indexed by SchemeClass. The
     * decoders point into the sibling image members, so a cached
     * decoder must not outlive a move/copy of this object: the
     * wrapper drops the cache on both (decoder() rebuilds lazily at
     * the object's final address; the engine pre-warms cache entries,
     * whose heap address is stable, before publishing them).
     */
    struct DecoderSlots
    {
        mutable std::array<std::unique_ptr<const codec::Decoder>, 3>
            byScheme;
        DecoderSlots() = default;
        DecoderSlots(DecoderSlots &&) noexcept {}
        DecoderSlots(const DecoderSlots &) noexcept {}
        DecoderSlots &
        operator=(DecoderSlots &&) noexcept
        {
            byScheme = {};
            return *this;
        }
        DecoderSlots &
        operator=(const DecoderSlots &) noexcept
        {
            byScheme = {};
            return *this;
        }
    };
    DecoderSlots decoderSlots_;
};

/** The image the fetch organisation of @p scheme reads from. */
const isa::Image &imageFor(const Artifacts &artifacts,
                           fetch::SchemeClass scheme);

/**
 * Fetch-simulate @p scheme with the paper's configuration. While a
 * fetch::cachestats session is active (core::reports, run by benches
 * and tepicc), cache-behavior recording is switched on and the
 * simulation's CacheStats land in the session store under
 * @p label (the workload name; "-" when empty) plus the exact
 * cache.<scheme>.* metrics counters.
 */
fetch::FetchStats
runFetch(const Artifacts &artifacts, fetch::SchemeClass scheme,
         std::optional<fetch::FetchConfig> config = std::nullopt,
         const std::string &label = {});

/** One row of the compression comparison (Figure 5). */
struct SchemeSummary
{
    std::string name;
    std::size_t codeBits = 0;
    double ratioVsBase = 1.0;
    std::uint64_t decoderTransistors = 0;
};

/**
 * Summaries for every *built* scheme, in the fixed order base, byte,
 * streams, full, tailored.
 */
std::vector<SchemeSummary> summarise(const Artifacts &artifacts);

/**
 * Verify every built compressed/tailored image decodes back to the
 * exact baseline operation stream. Fatal on mismatch; used by tests
 * and the harness's self-check mode.
 */
void verifyRoundTrips(const Artifacts &artifacts);

// --- size provenance (support/size_ledger.hh) ------------------------

/** One built artifact's size ledger, keyed by its scheme name. */
struct SizeEntry
{
    std::string scheme;           ///< "base", "huff-full", "att", ...
    std::uint64_t totalBits = 0;  ///< the artifact's exact size
    const support::SizeLedger *ledger = nullptr;
    const isa::Image *image = nullptr;  ///< null for the ATT
};

/**
 * Every built artifact's ledger, in the fixed order base, byte,
 * streams, full, tailored, att. Re-asserts the tiling invariant on
 * each entry (leaves sum to totalBits exactly).
 */
std::vector<SizeEntry> collectSizeLedgers(const Artifacts &artifacts);

/**
 * Export every built ledger into @p metrics as deterministic
 * counters "size.<scheme>.<leaf>" + "size.<scheme>.total_bits", and
 * the Huffman code-length distributions as "size.<scheme>.codelen"
 * histograms.
 */
void recordSizeMetrics(const Artifacts &artifacts,
                       support::MetricsRegistry &metrics);

/** A (workload name, artifacts) pair for the size report. */
struct SizeReportEntry
{
    std::string workload;
    const Artifacts *artifacts = nullptr;
};

/**
 * Render schema "tepic-size-v1": per workload, per built scheme, the
 * treemap tree plus the per-function layout rollup (both tiling
 * total_bits exactly). Deterministic for any engine --jobs value —
 * bit-identical output is a tested guarantee.
 */
std::string sizeReportJson(
    const std::string &name,
    const std::vector<SizeReportEntry> &entries);

} // namespace tepic::core

#endif // TEPIC_CORE_PIPELINE_HH
