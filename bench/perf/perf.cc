/**
 * @file
 * tepic-perf: host-time benchmark of the paper's whole pipeline —
 * compile, profile-emulate, relayout, trace-emulate, encode per scheme,
 * ATT, decoder, fetch-simulate — through its public entry points
 * (core::ArtifactEngine::buildMany, core::runFetch,
 * core::sweep::runSweep).
 *
 * One process runs one workload as a closed loop with a single caller:
 * set-up runs at least kMinSetups times (each timed, reported as
 * setup_s), then timed iterations run back to back while another one
 * fits in --seconds (at least one). Each iteration is a fixed set of
 * operations — one program build, one (program, scheme) fetch
 * simulation or one sweep point — and every operation is checked after
 * the iteration's timed window: emulated exit value against the native
 * oracle, images decoding back to the program, exact stall / 3C /
 * hot-block tilings, and an architectural digest against
 * expected.json. A failed check is counted, never fatal. --seed
 * permutes the order of programs, schemes and sweep dimensions inside
 * each iteration; every digest is the same under every seed.
 *
 * --traced=FILE adds the per-layer view. After the untraced
 * iterations it turns on the library's own trace layer
 * (support::trace), runs one more set-up and more iterations of the
 * same calls, and reads the spans back: each span's self time (its
 * duration minus its children's on the same thread) goes to the
 * per-layer metric kLayerOfSpan names. The Chrome trace is written to
 * FILE.
 */

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/codec.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "core/sweep.hh"
#include "fetch/cache_stats.hh"
#include "fetch/hot_stats.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/trace.hh"
#include "tests/json_mini.hh"
#include "workloads/workload.hh"

namespace tepic::perf {
namespace {

using Clock = std::chrono::steady_clock;
using fetch::SchemeClass;
using support::jsonQuote;
using Metrics = std::map<std::string, double>;

double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Threads for the engine and the sweep: at most 4, on any host. */
unsigned
jobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

constexpr std::array<SchemeClass, 3> kSchemes = {
    SchemeClass::kBase, SchemeClass::kCompressed, SchemeClass::kTailored};

constexpr bool kRecorders =
    TEPIC_CACHESTATS_ENABLED && TEPIC_HOTSTATS_ENABLED;

/**
 * Set-up runs at least this many times, and until the set-ups have
 * taken kMinSetupSeconds, so that the median of a set-up of a few
 * milliseconds is steady.
 */
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;

// ---------------------------------------------------------------------------
// The catalogue --list prints; BENCHMARK.json mirrors it (a ctest checks
// that the two agree).

struct WorkloadDef
{
    const char *name;
    const char *why;
};

const std::vector<WorkloadDef> kWorkloads = {
    {"suite-build",
     "cold serial ArtifactEngine build of all 10 programs: emulation "
     "dominates, no fetch sim"},
    {"fetch-paper",
     "30 paper-config fetch sims, no recorders: the bare fetch kernel; "
     "emulation only in set-up"},
    {"fetch-recorded",
     "the same 30 sims with cachestats/hotstats sessions and reports: "
     "the kernel with its observers on"},
    {"sweep-ci",
     "576-point CI sweep on 4 threads: small 1-way caches, 3 "
     "predictors, ATT rebuilt per point, no decoded-block cache"},
};

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"wall_s", "s", "lower"},
    {"sim_ops_per_s", "1/s", "higher"},
    {"heap_mb", "MB", "lower"},
};

/**
 * Times are self seconds summed over threads, counts are events; both
 * for one set-up plus one iteration.
 */
const std::vector<MetricDef> kPerLayer = {
    {"compiler.compile_s", "s", "lower"},
    {"sim.emulate_profile_s", "s", "lower"},
    {"sim.emulate_trace_s", "s", "lower"},
    {"sim.mops_per_s", "1/s", "higher"},
    {"isa.build_base_s", "s", "lower"},
    {"schemes.huffman_s", "s", "lower"},
    {"schemes.tailored_s", "s", "lower"},
    {"fetch.att_build_s", "s", "lower"},
    {"codec.decoder_build_s", "s", "lower"},
    {"fetch.simulate_s", "s", "lower"},
    {"fetch.write_reports_s", "s", "lower"},
    {"core.sweep_point_s", "s", "lower"},
    {"core.sweep_s", "s", "lower"},
    {"core.engine_s", "s", "lower"},
    {"workloads.reference_s", "s", "lower"},
    {"bench.unattributed_s", "s", "lower"},
    {"bench.attributed_frac", "ratio", "higher"},
    {"bench.trace_overhead_frac", "ratio", "lower"},
    {"sim.dynamic_mops", "count", "lower"},
    {"compiler.static_ops", "count", "lower"},
    {"schemes.ops_encoded", "count", "lower"},
    {"fetch.blocks_simulated", "count", "lower"},
    {"fetch.l1_misses", "count", "lower"},
    {"power.bus_beats", "count", "lower"},
    {"power.bus_bit_flips", "count", "lower"},
    {"codec.block_cache_hits", "count", "higher"},
    {"codec.block_cache_misses", "count", "lower"},
    {"codec.block_cache_hit_ratio", "ratio", "higher"},
    {"core.sweep_points", "count", "higher"},
};

/**
 * The per-layer metric each span's self time goes to. The engine.*,
 * fetch.simulate and pool.task spans are the library's; the others
 * are this file's. A span not named here (bench.setup and
 * bench.iteration, the roots) counts as bench.unattributed_s.
 */
const std::map<std::string, std::string> kLayerOfSpan = {
    // ArtifactEngine::compileStage: compileSource, then the profile
    // run (with applyProfileAndRelayout), then the trace run.
    {"engine.compile", "compiler.compile_s"},
    {"engine.emulate.profile", "sim.emulate_profile_s"},
    {"engine.emulate", "sim.emulate_trace_s"},
    {"engine.build.base", "isa.build_base_s"},
    {"engine.build.byte", "schemes.huffman_s"},
    {"engine.build.stream", "schemes.huffman_s"},
    {"engine.build.full", "schemes.huffman_s"},
    {"engine.build.tailored", "schemes.tailored_s"},
    {"engine.build.att", "fetch.att_build_s"},
    {"engine.build.decoder", "codec.decoder_build_s"},
    {"engine.buildMany", "core.engine_s"},
    {"engine.phase.compile", "core.engine_s"},
    {"engine.phase.schemes", "core.engine_s"},
    {"engine.phase.att", "core.engine_s"},
    // core::runFetch: decoded-block cache, simulateFetch, recording.
    {"fetch.simulate", "fetch.simulate_s"},
    // A ThreadPool task's own time. On sweep-ci that is each point's
    // evaluatePoint (simulateFetch + the point's metrics), which has
    // no span of its own; around engine tasks it is microseconds.
    {"pool.task", "core.sweep_point_s"},
    {"core.sweep.run", "core.sweep_s"},
    {"fetch.write_reports", "fetch.write_reports_s"},
    {"workloads.reference", "workloads.reference_s"},
};

// ---------------------------------------------------------------------------
// Per-operation checks.

class Digest
{
  public:
    Digest &
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
        return *this;
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      (unsigned long long)hash_);
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Counts operations and their failures. An operation fails on a
 * @p problem or when its digest differs from the reference: the
 * expected.json entry, or — when recording a new expected.json — the
 * first digest this run saw for the key.
 */
class Ledger
{
  public:
    Ledger(std::map<std::string, std::string> reference, bool recording)
        : reference_(std::move(reference)), recording_(recording)
    {
    }

    void
    op(const std::string &key, std::string problem,
       const std::string &digest)
    {
        ++attempted_;
        if (problem.empty()) {
            const auto it = reference_.find(key);
            if (it == reference_.end()) {
                if (recording_)
                    reference_.emplace(key, digest);
                else
                    problem = "no digest in expected.json";
            } else if (it->second != digest) {
                problem = "digest " + digest + " != expected " +
                          it->second;
            }
        }
        if (problem.empty())
            return;
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(key + ": " + problem);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::map<std::string, std::string> &
    reference() const
    {
        return reference_;
    }

  private:
    std::map<std::string, std::string> reference_;
    bool recording_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

std::string
describe(const std::exception &error)
{
    return std::string("exception: ") + error.what();
}

bool
sameOps(const std::vector<std::vector<isa::Operation>> &decoded,
        const isa::VliwProgram &program)
{
    if (decoded.size() != program.blocks().size())
        return false;
    for (const auto &block : program.blocks()) {
        const auto &ops = decoded[block.id];
        std::size_t i = 0;
        for (const auto &mop : block.mops)
            for (const auto &op : mop.ops())
                if (i >= ops.size() || !(ops[i++] == op))
                    return false;
        if (i != ops.size())
            return false;
    }
    return true;
}

/**
 * Empty, or why @p a is wrong: an exit value other than the native
 * oracle's, or an image that does not decode back to the program.
 */
std::string
programProblem(const core::Artifacts &a, std::int32_t reference)
{
    using core::ArtifactKind;
    if (a.execution.exitValue != reference) {
        return "exit value " + std::to_string(a.execution.exitValue) +
               " != native reference " + std::to_string(reference);
    }
    const auto &program = a.compiled.program;
    const auto decodes = [&](const auto &decoder) {
        return sameOps(decoder->decodeAll(), program);
    };
    if (a.has(ArtifactKind::kBase) &&
        !decodes(codec::makeBaseDecoder(a.baseImage())))
        return "base image does not decode to the program";
    if (a.has(ArtifactKind::kByte) &&
        !decodes(codec::makeDecoder(a.byteImage())))
        return "byte image does not decode to the program";
    if (a.has(ArtifactKind::kStream))
        for (const auto &stream : a.streamImages())
            if (!decodes(codec::makeDecoder(stream)))
                return stream.image.scheme +
                       " image does not decode to the program";
    if (a.has(ArtifactKind::kFull) &&
        !decodes(codec::makeDecoder(a.fullImage())))
        return "full image does not decode to the program";
    if (a.has(ArtifactKind::kTailored) &&
        !decodes(codec::makeDecoder(a.tailoredIsa(), a.tailoredImage())))
        return "tailored image does not decode to the program";
    return {};
}

std::string
buildDigest(const core::Artifacts &a)
{
    using core::ArtifactKind;
    Digest d;
    d.add(std::uint64_t(std::uint32_t(a.execution.exitValue)))
        .add(a.execution.dynamicOps)
        .add(a.execution.dynamicMops)
        .add(a.execution.dynamicBlocks)
        .add(a.execution.trace.events.size())
        .add(a.compiled.program.opCount())
        .add(a.compiled.program.mopCount());
    const auto image = [&d](const isa::Image &img) {
        d.add(img.bitSize).add(codec::imageFingerprint(img));
    };
    if (a.has(ArtifactKind::kBase))
        image(a.baseImage());
    if (a.has(ArtifactKind::kByte))
        image(a.byteImage().image);
    if (a.has(ArtifactKind::kStream))
        for (const auto &stream : a.streamImages())
            image(stream.image);
    if (a.has(ArtifactKind::kFull))
        image(a.fullImage().image);
    if (a.has(ArtifactKind::kTailored))
        image(a.tailoredImage());
    if (a.has(ArtifactKind::kAtt))
        d.add(a.att().totalBits());
    return d.hex();
}

std::string
fetchProblem(const fetch::FetchStats &s, std::size_t trace_events,
             bool recorded)
{
    if (s.mispredictStallCycles + s.refillStallCycles +
            s.decodeStallCycles + s.atbStallCycles !=
        s.stallCycles)
        return "stall causes do not tile stall_cycles";
    if (s.blocksFetched != trace_events)
        return "blocks fetched != trace events";
    if (!recorded || !kRecorders)
        return {};
    const fetch::CacheStats &cs = s.cacheStats;
    if (!cs.recorded ||
        cs.compulsory + cs.capacity + cs.conflict != cs.misses ||
        cs.misses != s.l1Misses)
        return "3C split does not tile the L1 misses";
    const fetch::HotStats &hs = s.hotStats;
    std::uint64_t fetches = 0;
    for (std::uint64_t n : hs.blockFetches)
        fetches += n;
    if (!hs.recorded || fetches != hs.blocksSimulated ||
        hs.blocksSimulated != s.blocksFetched)
        return "hot-block fetches do not tile the blocks fetched";
    return {};
}

std::string
fetchDigest(const fetch::FetchStats &s)
{
    Digest d;
    for (std::uint64_t v :
         {s.cycles, s.idealCycles, s.opsDelivered, s.blocksFetched,
          s.l1Hits, s.l1Misses, s.l0Hits, s.l0Misses, s.atbHits,
          s.atbMisses, s.predictionsCorrect, s.predictionsWrong,
          s.linesTransferred, s.busBeats, s.busBitFlips,
          s.bytesTransferred, s.stallCycles, s.mispredictStallCycles,
          s.refillStallCycles, s.decodeStallCycles, s.atbStallCycles,
          s.l0SavedCycles})
        d.add(v);
    return d.hex();
}

template <typename T>
void
shuffle(std::vector<T> &items, support::Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

std::vector<std::size_t>
identity(std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    return order;
}

std::vector<std::size_t>
permutation(std::size_t n, support::Rng &rng)
{
    auto order = identity(n);
    shuffle(order, rng);
    return order;
}

using Model = std::map<std::string, std::uint64_t>;

std::uint64_t
ratioE6(std::uint64_t num, std::uint64_t den)
{
    return den ? num * 1'000'000ull / den : 0;
}

// ---------------------------------------------------------------------------
// Workloads.

std::vector<const workloads::Workload *>
suite(const std::vector<std::string> &names = {})
{
    std::vector<const workloads::Workload *> out;
    if (names.empty())
        for (const auto &w : workloads::allWorkloads())
            out.push_back(&w);
    for (const auto &name : names)
        out.push_back(&workloads::workloadByName(name));
    return out;
}

class Workload
{
  public:
    explicit Workload(std::vector<const workloads::Workload *> programs)
        : programs_(std::move(programs))
    {
    }
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Set-up, timed as setup_s. */
    virtual void setup() = 0;
    /** One timed iteration, in an order drawn from @p rng. */
    virtual void iterate(support::Rng &rng) = 0;
    /** Untimed checks of the last iteration, one ledger op each. */
    virtual void check(Ledger &ledger) = 0;

    /** Frees what the last build made; called outside timed windows. */
    void
    release()
    {
        built_.clear();
        engine_.reset();
    }

    /** Untimed checks of the programs set-up built, kept per program. */
    void
    checkSetup()
    {
        setupProblems_ = buildProblems_;
        for (std::size_t p = 0; p < built_.size(); ++p)
            if (setupProblems_[p].empty())
                setupProblems_[p] = programProblem(*built_[p], refs_[p]);
        setupCounts_ = buildCounts();
    }

    /** Simulated operations one iteration covers. */
    std::uint64_t simOps() const { return simOps_; }
    /** Paper-figure values of the last checked iteration. */
    const Model &model() const { return model_; }

    /** Simulated-event counts of one set-up plus one iteration. */
    Metrics
    counts() const
    {
        Metrics out = setupCounts_;
        for (const auto &[name, value] : iterationCounts_)
            out[name] += value;
        return out;
    }

  protected:
    void
    computeReferences()
    {
        TEPIC_TRACE_SPAN("workloads.reference", "bench");
        refs_.clear();
        for (const auto *w : programs_)
            refs_.push_back(w->reference());
    }

    /**
     * Build every program, in @p order, with a fresh
     * ArtifactEngine(@p jobs). A build that throws leaves every
     * program the reason in buildProblems_.
     */
    void
    buildPrograms(core::ArtifactRequest request, unsigned jobs,
                  const std::vector<std::size_t> &order)
    {
        const std::size_t n = programs_.size();
        std::vector<core::BuildRequest> requests;
        for (std::size_t p : order)
            requests.push_back(
                {programs_[p]->source, request, {}, programs_[p]->name});
        engine_ = std::make_unique<core::ArtifactEngine>(jobs);
        built_.assign(n, nullptr);
        buildProblems_.assign(n, {});
        try {
            const auto results = engine_->buildMany(requests);
            for (std::size_t k = 0; k < n; ++k)
                built_[order[k]] = results[k];
        } catch (const std::exception &error) {
            built_.clear();
            buildProblems_.assign(n, describe(error));
        }
    }

    /** Emulated and static operations of what the last build made. */
    Metrics
    buildCounts() const
    {
        Metrics out;
        for (const auto &a : built_) {
            out["sim.dynamic_mops"] += double(a->execution.dynamicMops);
            out["compiler.static_ops"] +=
                double(a->compiled.program.opCount());
        }
        return out;
    }

    std::vector<const workloads::Workload *> programs_;
    std::vector<std::int32_t> refs_;
    std::unique_ptr<core::ArtifactEngine> engine_;
    std::vector<std::shared_ptr<const core::Artifacts>> built_;
    std::vector<std::string> buildProblems_;
    std::vector<std::string> setupProblems_;
    Metrics setupCounts_;
    Metrics iterationCounts_;
    Model model_;
    std::uint64_t simOps_ = 0;
};

/** Cold ArtifactEngine(1) + buildMany of the suite, everything built. */
class SuiteBuild final : public Workload
{
  public:
    SuiteBuild() : Workload(suite()) {}

    void setup() override { computeReferences(); }

    void
    iterate(support::Rng &rng) override
    {
        buildPrograms(core::ArtifactRequest::all(), 1,
                      permutation(programs_.size(), rng));
    }

    void
    check(Ledger &ledger) override
    {
        std::uint64_t base_bits = 0, full_bits = 0, tailored_bits = 0;
        std::uint64_t att_bits = 0;
        simOps_ = 0;
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            std::string problem = buildProblems_[p];
            std::string digest;
            if (problem.empty()) {
                const core::Artifacts &a = *built_[p];
                problem = programProblem(a, refs_[p]);
                digest = buildDigest(a);
                base_bits += a.compiled.program.baselineBits();
                full_bits += a.fullImage().image.bitSize;
                tailored_bits += a.tailoredImage().bitSize;
                att_bits += a.att().totalBits();
                simOps_ += a.execution.dynamicOps;
            }
            ledger.op("suite-build/" + programs_[p]->name, problem,
                      digest);
        }
        model_["size_ratio_full_e6"] = ratioE6(full_bits, base_bits);
        model_["size_ratio_tailored_e6"] =
            ratioE6(tailored_bits, base_bits);
        model_["att_overhead_e6"] = ratioE6(att_bits, full_bits);
        iterationCounts_ = buildCounts();
        release();
    }
};

/** Adds one simulation's events to @p counts. */
void
countFetch(Metrics &counts, std::uint64_t blocks, std::uint64_t l1_misses,
           std::uint64_t bus_beats, std::uint64_t bus_bit_flips)
{
    counts["fetch.blocks_simulated"] += double(blocks);
    counts["fetch.l1_misses"] += double(l1_misses);
    counts["power.bus_beats"] += double(bus_beats);
    counts["power.bus_bit_flips"] += double(bus_bit_flips);
}

/**
 * runFetch over every (program, scheme) at FetchConfig::paper; with
 * @p recorded, inside cachestats + hotstats sessions whose reports are
 * written at the end of each iteration, as a bench's print phase does.
 */
class FetchSuite final : public Workload
{
  public:
    FetchSuite(bool recorded, std::string tmp_dir)
        : Workload(suite()), recorded_(recorded),
          tmpDir_(std::move(tmp_dir))
    {
    }

    void
    setup() override
    {
        computeReferences();
        buildPrograms({core::ArtifactKind::kDecoder,
                       core::ArtifactKind::kTrace},
                      jobs(), identity(programs_.size()));
    }

    void
    iterate(support::Rng &rng) override
    {
        const std::size_t n = programs_.size() * kSchemes.size();
        stats_.assign(n, {});
        problems_.assign(n, {});
        if (recorded_) {
            fetch::cachestats::startSession();
            fetch::hotstats::startSession();
        }
        for (std::size_t op : permutation(n, rng)) {
            const std::size_t p = op / kSchemes.size();
            const SchemeClass scheme = kSchemes[op % kSchemes.size()];
            if (!setupProblems_[p].empty())
                continue;
            try {
                stats_[op] = core::runFetch(*built_[p], scheme,
                                            std::nullopt,
                                            programs_[p]->name);
            } catch (const std::exception &error) {
                problems_[op] = describe(error);
            }
        }
        if (recorded_) {
            TEPIC_TRACE_SPAN("fetch.write_reports", "bench");
            fetch::cachestats::writeReport(tmpDir_ + "/CACHE_perf.json",
                                           "perf");
            fetch::hotstats::writeReport(tmpDir_ + "/HOT_perf.json",
                                         "perf");
            fetch::cachestats::endSession();
            fetch::hotstats::endSession();
        }
    }

    void
    check(Ledger &ledger) override
    {
        std::array<std::uint64_t, 3> ops{}, cycles{}, flips{};
        simOps_ = 0;
        iterationCounts_.clear();
        for (std::size_t op = 0; op < stats_.size(); ++op) {
            const std::size_t p = op / kSchemes.size();
            const SchemeClass scheme = kSchemes[op % kSchemes.size()];
            const fetch::FetchStats &s = stats_[op];
            std::string problem = setupProblems_[p];
            if (problem.empty())
                problem = problems_[op];
            if (problem.empty())
                problem = fetchProblem(
                    s, built_[p]->execution.trace.events.size(),
                    recorded_);
            ledger.op(std::string("fetch/") + programs_[p]->name + "/" +
                          fetch::schemeClassName(scheme),
                      problem, fetchDigest(s));
            ops[unsigned(scheme)] += s.opsDelivered;
            cycles[unsigned(scheme)] += s.cycles;
            flips[unsigned(scheme)] += s.busBitFlips;
            simOps_ += s.opsDelivered;
            countFetch(iterationCounts_, s.blocksFetched, s.l1Misses,
                       s.busBeats, s.busBitFlips);
        }
        for (SchemeClass scheme : kSchemes)
            model_[std::string("ipc_") + fetch::schemeClassName(scheme) +
                   "_e6"] =
                ratioE6(ops[unsigned(scheme)], cycles[unsigned(scheme)]);
        model_["bus_flips_ratio_compressed_e6"] =
            ratioE6(flips[unsigned(SchemeClass::kCompressed)],
                    flips[unsigned(SchemeClass::kBase)]);
        stats_.clear();
    }

  private:
    bool recorded_;
    std::string tmpDir_;
    std::vector<fetch::FetchStats> stats_;
    std::vector<std::string> problems_;
};

/** core::sweep::runSweep(SweepGrid::ci(), 4 jobs, record3c). */
class SweepCi final : public Workload
{
  public:
    SweepCi() : Workload(suite(core::sweep::SweepGrid::ci().workloads)) {}

    void
    setup() override
    {
        computeReferences();
        // The request runSweep makes, so its own build is a cache hit.
        buildPrograms({core::ArtifactKind::kTrace, core::ArtifactKind::kBase,
                       core::ArtifactKind::kFull,
                       core::ArtifactKind::kTailored},
                      jobs(), identity(programs_.size()));
    }

    void
    iterate(support::Rng &rng) override
    {
        core::sweep::SweepOptions options;
        options.grid = core::sweep::SweepGrid::ci();
        shuffle(options.grid.workloads, rng);
        shuffle(options.grid.schemes, rng);
        shuffle(options.grid.predictors, rng);
        options.jobs = jobs();
        options.record3c = true;
        points_.clear();
        problem_.clear();
        const std::uint64_t misses = engine_->stats().cacheMisses;
        try {
            TEPIC_TRACE_SPAN("core.sweep.run", "bench");
            for (auto &rec : core::sweep::runSweep(*engine_, options).points)
                points_.emplace_back(rec.key, rec.metrics);
        } catch (const std::exception &error) {
            problem_ = describe(error);
        }
        if (engine_->stats().cacheMisses != misses)
            problem_ = "the sweep rebuilt artefacts set-up had built";
    }

    void
    check(Ledger &ledger) override
    {
        for (std::size_t p = 0; p < programs_.size(); ++p)
            if (!setupProblems_[p].empty())
                ledger.op("sweep/" + programs_[p]->name, setupProblems_[p],
                          "");
        if (!problem_.empty())
            ledger.op("sweep-ci/run", problem_, "");
        std::uint64_t cycles = 0;
        simOps_ = 0;
        iterationCounts_.clear();
        for (const auto &[key, m] : points_) {
            const std::size_t p = programIndex(key.substr(0, key.find('/')));
            std::string problem = setupProblems_[p];
            if (problem.empty() &&
                m.mispredictStall + m.refillStall + m.decodeStall +
                        m.atbStall !=
                    m.stallCycles)
                problem = "stall causes do not tile stall_cycles";
            if (problem.empty() &&
                m.blocksFetched != built_[p]->execution.trace.events.size())
                problem = "blocks fetched != trace events";
            if (problem.empty() && kRecorders &&
                (!m.cacheRecorded ||
                 m.compulsory + m.capacity + m.conflict != m.l1Misses))
                problem = "3C split does not tile the L1 misses";
            Digest d;
            for (std::uint64_t v :
                 {m.sizeBits, m.cycles, m.idealCycles, m.opsDelivered,
                  m.blocksFetched, m.stallCycles, m.mispredictStall,
                  m.refillStall, m.decodeStall, m.atbStall,
                  m.l0SavedCycles, m.l1Hits, m.l1Misses, m.busBitFlips,
                  m.busBeats, m.bytesTransferred, m.decoderTransistors,
                  std::uint64_t(m.cacheRecorded), m.compulsory,
                  m.capacity, m.conflict})
                d.add(v);
            ledger.op("sweep/" + key, problem, d.hex());
            simOps_ += m.opsDelivered;
            cycles += m.cycles;
            countFetch(iterationCounts_, m.blocksFetched, m.l1Misses,
                       m.busBeats, m.busBitFlips);
        }
        iterationCounts_["core.sweep_points"] = double(points_.size());
        model_["sweep_points"] = points_.size();
        model_["sweep_ipc_e6"] = ratioE6(simOps_, cycles);
    }

  private:
    std::size_t
    programIndex(const std::string &name) const
    {
        std::size_t p = 0;
        while (p + 1 < programs_.size() && programs_[p]->name != name)
            ++p;
        return p;
    }

    std::vector<std::pair<std::string, core::sweep::PointMetrics>> points_;
    std::string problem_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &tmp_dir)
{
    if (name == "suite-build")
        return std::make_unique<SuiteBuild>();
    if (name == "fetch-paper")
        return std::make_unique<FetchSuite>(false, tmp_dir);
    if (name == "fetch-recorded")
        return std::make_unique<FetchSuite>(true, tmp_dir);
    if (name == "sweep-ci")
        return std::make_unique<SweepCi>();
    return nullptr;
}

// ---------------------------------------------------------------------------
// Reading the traced run's spans back.

/** One complete ("X") trace event, in nanoseconds. */
struct Span
{
    std::string name;
    std::uint64_t tid = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

std::vector<Span>
completeSpans(const std::string &trace_json)
{
    const auto ns = [](const testjson::Value &us) {
        return std::int64_t(std::llround(us.number * 1000.0));
    };
    const testjson::Value doc = testjson::parse(trace_json);
    std::vector<Span> out;
    for (const auto &e : doc.at("traceEvents").array) {
        if (e.at("ph").str != "X")
            continue;
        const std::int64_t start = ns(e.at("ts"));
        out.push_back({e.at("name").str, std::uint64_t(e.at("tid").number),
                       start, start + ns(e.at("dur"))});
    }
    return out;
}

/** A union of intervals; covered(a, b) is its length inside [a, b). */
class Cover
{
  public:
    explicit Cover(std::vector<std::pair<std::int64_t, std::int64_t>> spans)
    {
        std::sort(spans.begin(), spans.end());
        for (const auto &[a, b] : spans) {
            if (!merged_.empty() && a <= merged_.back().second) {
                merged_.back().second = std::max(merged_.back().second, b);
                continue;
            }
            merged_.push_back({a, b});
        }
        before_.push_back(0);
        for (const auto &[a, b] : merged_)
            before_.push_back(before_.back() + (b - a));
    }

    std::int64_t
    covered(std::int64_t a, std::int64_t b) const
    {
        return upTo(b) - upTo(a);
    }

  private:
    /** Covered length before @p x. */
    std::int64_t
    upTo(std::int64_t x) const
    {
        const auto it = std::upper_bound(
            merged_.begin(), merged_.end(), x,
            [](std::int64_t v, const auto &span) { return v < span.first; });
        const std::size_t i = std::size_t(it - merged_.begin());
        if (i == 0)
            return 0;
        return before_[i - 1] +
               (std::min(x, merged_[i - 1].second) - merged_[i - 1].first);
    }

    std::vector<std::pair<std::int64_t, std::int64_t>> merged_;
    std::vector<std::int64_t> before_;
};

/**
 * Self seconds per per-layer metric, summed over threads, for the
 * traced set-up (the bench.setup root) and for all traced iterations
 * together (the bench.iteration roots). A span's self time is its
 * duration minus its children's on the same thread. On the harness
 * thread, self time while a pool thread is inside a span is waiting
 * for the pool, which the pool thread's spans already count, so it is
 * left out.
 */
struct LayerTimes
{
    Metrics setup;
    Metrics iterations;
    int iterationCount = 0;
};

LayerTimes
layerTimes(std::vector<Span> spans)
{
    std::vector<Span> roots;
    for (const Span &s : spans)
        if (s.name == "bench.setup" || s.name == "bench.iteration")
            roots.push_back(s);
    if (roots.empty())
        throw std::runtime_error(
            "the trace holds no bench spans: tepic-perf was built with "
            "TEPIC_ENABLE_TRACING=OFF");
    std::sort(roots.begin(), roots.end(),
              [](const Span &a, const Span &b) { return a.start < b.start; });
    const std::uint64_t harness = roots.front().tid;

    // Nest each thread's spans: by thread, by start, longer first.
    std::sort(spans.begin(), spans.end(), [](const Span &a, const Span &b) {
        return std::tie(a.tid, a.start, b.end) <
               std::tie(b.tid, b.start, a.end);
    });
    std::vector<int> parent(spans.size(), -1);
    std::vector<int> stack;
    std::vector<std::pair<std::int64_t, std::int64_t>> pool_spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i > 0 && spans[i].tid != spans[i - 1].tid)
            stack.clear();
        while (!stack.empty() && spans[stack.back()].end < spans[i].end)
            stack.pop_back();
        if (!stack.empty())
            parent[i] = stack.back();
        else if (spans[i].tid != harness)
            pool_spans.push_back({spans[i].start, spans[i].end});
        stack.push_back(int(i));
    }
    const Cover pool(std::move(pool_spans));

    // self[i] = duration - children, less waiting on the harness thread.
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = spans[i].end - spans[i].start;
        if (spans[i].tid == harness)
            self[i] -= pool.covered(spans[i].start, spans[i].end);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = parent[i];
        if (p < 0)
            continue;
        self[p] -= spans[i].end - spans[i].start;
        if (spans[p].tid == harness)
            self[p] += pool.covered(spans[i].start, spans[i].end);
    }

    LayerTimes out;
    for (const Span &root : roots)
        out.iterationCount += root.name == "bench.iteration";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto root = std::upper_bound(
            roots.begin(), roots.end(), spans[i].start,
            [](std::int64_t t, const Span &r) { return t < r.start; });
        if (root == roots.begin() || spans[i].start >= (root - 1)->end)
            continue;  // outside set-up and iterations: the checks
        const auto layer = kLayerOfSpan.find(spans[i].name);
        const std::string &metric = layer == kLayerOfSpan.end()
            ? std::string("bench.unattributed_s")
            : layer->second;
        Metrics &into = (root - 1)->name == "bench.setup" ? out.setup
                                                          : out.iterations;
        into[metric] += double(self[i]) / 1e9;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Running, measuring, reporting.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string expectedPath;
    std::string writeExpectedPath;
    std::string tracedPath;
    std::string tmpDir = ".";
    bool list = false;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/**
 * Heap in use, in MB: glibc's allocated chunks plus mmapped blocks
 * over every arena. Unlike the peak resident set, it does not depend
 * on which pool thread's arena happened to hold freed memory.
 */
double
heapMb()
{
    const struct mallinfo2 info = mallinfo2();
    return double(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/** One set-up after freeing the last; returns its seconds. */
double
setUp(Workload &w)
{
    w.release();
    const auto t0 = Clock::now();
    {
        TEPIC_TRACE_SPAN("bench.setup", "bench");
        w.setup();
    }
    const double seconds = secondsBetween(t0, Clock::now());
    w.checkSetup();
    return seconds;
}

struct Timed
{
    double work = 0;    ///< the iteration's timed window
    double total = 0;   ///< work plus its checks
    double heapMb = 0;  ///< heap in use when the work ended
};

Timed
iterateOnce(Workload &w, support::Rng &rng, Ledger &ledger)
{
    const auto t0 = Clock::now();
    {
        TEPIC_TRACE_SPAN("bench.iteration", "bench");
        w.iterate(rng);
    }
    const auto t1 = Clock::now();
    const double heap = heapMb();
    w.check(ledger);
    return {secondsBetween(t0, t1), secondsBetween(t0, Clock::now()), heap};
}

/** The counts the library keeps in its metrics registry. */
Metrics
registryCounts()
{
    const auto &registry = support::MetricsRegistry::global();
    Metrics out;
    out["schemes.ops_encoded"] =
        double(registry.counter("prof.work.ops_encoded"));
    for (SchemeClass scheme : kSchemes) {
        const std::string prefix =
            std::string("codec.") + fetch::schemeClassName(scheme);
        out["codec.block_cache_hits"] +=
            double(registry.counter(prefix + ".block_cache_hits"));
        out["codec.block_cache_misses"] +=
            double(registry.counter(prefix + ".block_cache_misses"));
    }
    return out;
}

/**
 * Per-layer metrics of one set-up plus one (mean) iteration, from the
 * traced run's spans, @p counts and the registry deltas of its set-up
 * and iterations.
 */
Metrics
layerMetrics(const LayerTimes &times, Metrics counts,
             const Metrics &registry_setup,
             const Metrics &registry_iterations, double traced_wall,
             double untraced_wall)
{
    const double n = std::max(1, times.iterationCount);
    Metrics m;
    for (const auto &[span, metric] : kLayerOfSpan)
        m[metric] = 0;
    m["bench.unattributed_s"] = 0;
    double total = 0;
    for (auto &[metric, value] : m) {
        const auto setup = times.setup.find(metric);
        const auto iterations = times.iterations.find(metric);
        if (setup != times.setup.end())
            value += setup->second;
        if (iterations != times.iterations.end())
            value += iterations->second / n;
        total += value;
    }
    m["bench.attributed_frac"] =
        total > 0 ? 1.0 - m["bench.unattributed_s"] / total : 0;
    m["bench.trace_overhead_frac"] =
        untraced_wall > 0 ? traced_wall / untraced_wall - 1.0 : 0;

    for (const MetricDef &def : kPerLayer)
        if (std::string(def.unit) == "count")
            m[def.name] = counts[def.name];
    for (const auto &[name, value] : registry_setup)
        m[name] = value + registry_iterations.at(name) / n;
    const double accesses =
        m["codec.block_cache_hits"] + m["codec.block_cache_misses"];
    m["codec.block_cache_hit_ratio"] =
        accesses > 0 ? m["codec.block_cache_hits"] / accesses : 0;
    m["sim.mops_per_s"] = m["sim.emulate_trace_s"] > 0
        ? m["sim.dynamic_mops"] / m["sim.emulate_trace_s"]
        : 0;
    return m;
}

std::string
number(double value)
{
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
provenanceJson(const Options &options)
{
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::string out = "{\"compiler\": " + jsonQuote(compiler);
    out += ", \"build_type\": " + jsonQuote(TEPIC_PERF_BUILD_TYPE);
    out += ", \"cxx_flags\": " + jsonQuote(TEPIC_PERF_CXX_FLAGS);
    out += ", \"tepic_enable_tracing\": " + jsonQuote(TEPIC_PERF_TRACING);
    out += ", \"cpu\": " + jsonQuote(cpuModel());
    out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"jobs\": " + std::to_string(jobs());
    out += ", \"seed\": " + std::to_string(options.seed) + "}";
    return out;
}

std::string
metricsJson(const std::vector<MetricDef> &defs, const Metrics &values)
{
    std::string out = "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        out += i ? ", " : "";
        out += jsonQuote(defs[i].name) + ": {\"value\": " +
               number(values.at(defs[i].name)) +
               ", \"unit\": " + jsonQuote(defs[i].unit) + "}";
    }
    return out + "}";
}

void
printList()
{
    const auto defs = [](const std::vector<MetricDef> &list) {
        std::string out = "[";
        for (std::size_t i = 0; i < list.size(); ++i) {
            out += i ? ", " : "";
            out += "{\"name\": " + jsonQuote(list[i].name) +
                   ", \"unit\": " + jsonQuote(list[i].unit) +
                   ", \"better\": " + jsonQuote(list[i].better) + "}";
        }
        return out + "]";
    };
    std::string workloads = "[";
    for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
        workloads += i ? ", " : "";
        workloads += "{\"name\": " + jsonQuote(kWorkloads[i].name) +
                     ", \"why\": " + jsonQuote(kWorkloads[i].why) + "}";
    }
    std::printf("{\"workloads\": %s], \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                workloads.c_str(), defs(kEndToEnd).c_str(),
                defs(kPerLayer).c_str());
}

std::map<std::string, std::string>
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    const testjson::Value doc = testjson::parse(text.str());
    std::map<std::string, std::string> out;
    for (const auto &[key, value] : doc.object.at("ops").object)
        out[key] = value.str;
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

void
writeExpected(const std::string &path, const Ledger &ledger)
{
    std::string out = "{\n  \"schema\": \"tepic-perf-expected-v1\",\n"
                      "  \"ops\": {";
    bool first = true;
    for (const auto &[key, digest] : ledger.reference()) {
        out += (first ? "\n" : ",\n") + std::string("    ") +
               jsonQuote(key) + ": " + jsonQuote(digest);
        first = false;
    }
    writeFile(path, out + "\n  }\n}\n");
}

/** Run one workload; returns the result object (one JSON line). */
std::string
runWorkload(const Options &options, Ledger &ledger)
{
    auto workload = makeWorkload(options.workload, options.tmpDir);
    Workload &w = *workload;
    support::Rng rng(options.seed);
    const bool traced = !options.tracedPath.empty();

    std::vector<double> setups;
    for (double total = 0;
         setups.size() < kMinSetups || total < kMinSetupSeconds;
         total += setups.back())
        setups.push_back(setUp(w));

    // Iterations run while another one still fits in --seconds. A
    // traced run keeps room for its traced set-up and iteration.
    const auto start = Clock::now();
    const auto fits = [&](double more) {
        return secondsBetween(start, Clock::now()) + more <= options.seconds;
    };
    const double traced_reserve = traced ? median(setups) : 0;
    std::vector<double> walls;
    Timed last;
    Metrics e2e;
    do {
        last = iterateOnce(w, rng, ledger);
        walls.push_back(last.work);
        if (walls.size() == 1)
            e2e["heap_mb"] = last.heapMb;
    } while (fits(last.total + (traced ? last.total + traced_reserve : 0)));

    e2e["setup_s"] = median(setups);
    e2e["wall_s"] = median(walls);
    e2e["sim_ops_per_s"] =
        e2e["wall_s"] > 0 ? double(w.simOps()) / e2e["wall_s"] : 0;
    const Model model = w.model();

    std::string layers = "null";
    if (traced) {
        const Metrics registry_start = registryCounts();
        support::trace::start("");
        setUp(w);
        const Metrics registry_setup = registryCounts();
        std::vector<double> traced_walls;
        do {
            last = iterateOnce(w, rng, ledger);
            traced_walls.push_back(last.work);
        } while (fits(last.total));
        const std::string trace_json = support::trace::stopToJson();
        Metrics setup_delta, iterations_delta;
        for (const auto &[name, value] : registryCounts()) {
            setup_delta[name] = registry_setup.at(name) -
                                registry_start.at(name);
            iterations_delta[name] = value - registry_setup.at(name);
        }
        writeFile(options.tracedPath, trace_json);
        layers = metricsJson(
            kPerLayer,
            layerMetrics(layerTimes(completeSpans(trace_json)), w.counts(),
                         setup_delta, iterations_delta,
                         median(traced_walls), median(walls)));
    }

    std::string out = "{\"workload\": " + jsonQuote(options.workload);
    out += ", \"seed\": " + std::to_string(options.seed);
    out += ", \"setups\": " + std::to_string(setups.size());
    out += ", \"iterations\": " + std::to_string(walls.size());
    out += ", \"attempted\": " + std::to_string(ledger.attempted());
    out += ", \"failed\": " + std::to_string(ledger.failed());
    out += ", \"failures\": [";
    for (std::size_t i = 0; i < ledger.failures().size(); ++i)
        out += (i ? ", " : "") + jsonQuote(ledger.failures()[i]);
    out += "], \"end_to_end\": " + metricsJson(kEndToEnd, e2e);
    out += ", \"per_layer\": " + layers;
    out += ", \"model\": {";
    bool first = true;
    for (const auto &[name, value] : model) {
        out += (first ? "" : ", ") + jsonQuote(name) + ": " +
               std::to_string(value);
        first = false;
    }
    out += "}, \"samples\": {\"setup_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i)
        out += (i ? ", " : "") + number(setups[i]);
    out += "], \"wall_s\": [";
    for (std::size_t i = 0; i < walls.size(); ++i)
        out += (i ? ", " : "") + number(walls[i]);
    out += "]}, \"provenance\": " + provenanceJson(options) + "}";
    return out;
}

int
usage(const char *problem)
{
    std::fprintf(stderr,
                 "tepic-perf: %s\n"
                 "usage: tepic-perf --list\n"
                 "       tepic-perf --workload=NAME --expected=FILE "
                 "[--seed=N] [--seconds=S]\n"
                 "                  [--traced=FILE] [--tmp-dir=DIR]\n"
                 "       tepic-perf --write-expected=FILE\n",
                 problem);
    return 2;
}

int
run(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--list")
            options.list = true;
        else if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = std::stoull(value);
        else if (key == "--seconds")
            options.seconds = std::stod(value);
        else if (key == "--expected")
            options.expectedPath = value;
        else if (key == "--write-expected")
            options.writeExpectedPath = value;
        else if (key == "--traced")
            options.tracedPath = value;
        else if (key == "--tmp-dir")
            options.tmpDir = value;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (options.list) {
        printList();
        return 0;
    }
    std::filesystem::create_directories(options.tmpDir);

    if (!options.writeExpectedPath.empty()) {
        // One iteration of every workload; each op must repeat its
        // first digest (fetch-paper and fetch-recorded share keys).
        Ledger ledger({}, true);
        options.seconds = 0;
        for (const auto &def : kWorkloads) {
            options.workload = def.name;
            runWorkload(options, ledger);
        }
        for (const auto &failure : ledger.failures())
            std::fprintf(stderr, "tepic-perf: %s\n", failure.c_str());
        if (ledger.failed() != 0)
            return 1;
        writeExpected(options.writeExpectedPath, ledger);
        std::printf("wrote %zu digests to %s\n", ledger.reference().size(),
                    options.writeExpectedPath.c_str());
        return 0;
    }

    if (!makeWorkload(options.workload, options.tmpDir))
        return usage(("unknown workload '" + options.workload + "'").c_str());
    if (options.expectedPath.empty())
        return usage("--expected=FILE is required");
    Ledger ledger(loadExpected(options.expectedPath), false);
    const std::string result = runWorkload(options, ledger);
    for (const auto &failure : ledger.failures())
        std::fprintf(stderr, "tepic-perf: failed %s\n", failure.c_str());
    std::printf("%s\n", result.c_str());
    return ledger.failed() == 0 ? 0 : 1;
}

} // namespace
} // namespace tepic::perf

int
main(int argc, char **argv)
{
    try {
        return tepic::perf::run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tepic-perf: %s\n", error.what());
        return 2;
    }
}
