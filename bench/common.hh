/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses, built on the
 * parallel artifact engine. Every bench binary follows the same
 * pattern:
 *
 *   1. parse the shared BenchOptions CLI layer (--workloads=,
 *      --schemes=, --jobs=, --trace=, --metrics=) before
 *      google-benchmark sees argv,
 *   2. build the requested artefacts for the requested workloads —
 *      up front, in main, so build logging never interleaves with
 *      benchmark output and build failures surface before timings,
 *   3. print the reproduced table/figure rows (the deliverable),
 *   4. snapshot observability: write --metrics=/BENCH_fetch.json and
 *      print the engine cache + per-phase timing summary to stderr
 *      (before the timing loops run, so the deterministic metric
 *      sections are untouched by machine-dependent iteration counts),
 *   5. hand control to google-benchmark for the timing section, then
 *      flush the --trace= file (timed loops are included in traces —
 *      traces are wall-clock data anyway).
 *
 * Each binary declares the artefact kinds it actually consumes via
 * TEPIC_BENCH_MAIN's request argument; the engine builds nothing
 * else. `--schemes=` narrows (or widens) that set from the command
 * line, `--workloads=` selects a workload subset, and `--jobs=`
 * controls engine parallelism (output is bit-identical for any jobs
 * value — the determinism guarantee is tested in tests/test_engine).
 */

#ifndef TEPIC_BENCH_COMMON_HH
#define TEPIC_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <cstdlib>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "fetch/cache_stats.hh"
#include "fetch/hot_stats.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
#include "support/sched.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/trace.hh"
#include "workloads/workload.hh"

namespace tepic::bench {

/** The shared CLI layer, parsed before google-benchmark init. */
struct BenchOptions
{
    std::vector<std::string> workloads;  ///< empty = the full suite
    core::ArtifactRequest request;       ///< what to build
    unsigned jobs = 0;                   ///< 0 = hardware concurrency
    std::string tracePath;               ///< Chrome trace JSON out
    std::string metricsPath;             ///< metrics JSON out
    std::string profCollapsePath;        ///< collapsed-stack out
    std::string benchName;               ///< argv[0] basename
};

/** The harness CLI contract, shared by every bench binary. */
inline void
printBenchUsage(const std::string &bench_name, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options] [--benchmark_* flags]\n"
        "  --workloads=a,b       run a workload subset (default: all)\n"
        "  --schemes=s1,s2       artefact kinds to build (see\n"
        "                        core::ArtifactRequest::parse)\n"
        "  --jobs=N              engine parallelism (0 = hardware)\n"
        "  --trace=FILE          write a Chrome trace JSON\n"
        "  --metrics=FILE        write the metrics snapshot JSON\n"
        "  --prof-collapse=FILE  sample the run; write FlameGraph\n"
        "                        collapsed stacks\n"
        "  --log-level=LEVEL     debug|info|warn|error|none\n"
        "  --help                print this and exit\n"
        "Unrecognised --flags are an error; google-benchmark's own\n"
        "--benchmark_* and --v= flags pass through untouched.\n",
        bench_name.c_str());
}

/** argv[0] stripped to its basename: the canonical bench name. */
inline std::string
benchNameFromArgv0(const char *argv0)
{
    std::string name = argv0 ? argv0 : "bench";
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name.empty() ? "bench" : name;
}

/**
 * Parse and strip the harness flags from argv. `--schemes=` replaces
 * the binary's default request but inherits its trace bit (traces are
 * an input of the fetch sims, not a scheme a user would think to
 * list).
 */
inline BenchOptions
parseBenchOptions(int *argc, char **argv,
                  core::ArtifactRequest default_request)
{
    BenchOptions options;
    options.request = default_request;
    options.benchName = benchNameFromArgv0(*argc > 0 ? argv[0]
                                                     : nullptr);
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--workloads=", 12) == 0) {
            std::string list(arg + 12);
            std::size_t pos = 0;
            while (pos <= list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos) {
                    options.workloads.push_back(
                        list.substr(pos, comma - pos));
                }
                pos = comma + 1;
            }
        } else if (std::strncmp(arg, "--schemes=", 10) == 0) {
            auto parsed = core::ArtifactRequest::parse(arg + 10);
            if (default_request.has(core::ArtifactKind::kTrace))
                parsed = parsed.with(core::ArtifactKind::kTrace);
            options.request = parsed;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            options.jobs = unsigned(std::atoi(arg + 7));
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            options.tracePath = arg + 8;
        } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
            options.metricsPath = arg + 10;
        } else if (std::strncmp(arg, "--prof-collapse=", 16) == 0) {
            options.profCollapsePath = arg + 16;
        } else if (std::strncmp(arg, "--log-level=", 12) == 0) {
            // CLI takes precedence over the TEPIC_LOG env filter.
            const char *level = arg + 12;
            if (!support::isLogLevelName(level)) {
                TEPIC_FATAL("unknown --log-level '", level,
                            "' (expected debug|info|warn|error|none)");
            }
            support::setLogThreshold(support::parseLogLevel(level));
        } else if (std::strcmp(arg, "--help") == 0) {
            printBenchUsage(options.benchName, stdout);
            std::exit(0);
        } else if (std::strncmp(arg, "--benchmark_", 12) == 0 ||
                   std::strncmp(arg, "--v=", 4) == 0) {
            // google-benchmark's namespace; forwarded untouched.
            argv[out++] = argv[i];
        } else if (std::strncmp(arg, "--", 2) == 0) {
            // A typo'd harness flag silently reaching
            // google-benchmark would run the full suite with the
            // option dropped — fail loudly instead.
            std::fprintf(stderr, "%s: unknown flag '%s'\n",
                         options.benchName.c_str(), arg);
            printBenchUsage(options.benchName, stderr);
            std::exit(2);
        } else {
            argv[out++] = argv[i];
            continue;
        }
    }
    *argc = out;
    return options;
}

struct NamedArtifacts
{
    std::string name;
    bool isDspKernel = false;
    std::shared_ptr<const core::Artifacts> ptr;

    const core::Artifacts &artifacts() const { return *ptr; }
};

namespace detail {

inline std::unique_ptr<core::ArtifactEngine> &
engineSlot()
{
    static std::unique_ptr<core::ArtifactEngine> engine;
    return engine;
}

inline std::vector<NamedArtifacts> &
artifactsSlot()
{
    static std::vector<NamedArtifacts> artifacts;
    return artifacts;
}

} // namespace detail

/** The binary's engine; valid after buildAllArtifacts(). */
inline core::ArtifactEngine &
benchEngine()
{
    auto &engine = detail::engineSlot();
    TEPIC_ASSERT(engine != nullptr,
                 "benchEngine() used before buildAllArtifacts()");
    return *engine;
}

/**
 * Build the requested artefacts for every selected workload, batched
 * through the engine. Called from TEPIC_BENCH_MAIN before any table
 * printing or benchmark registration; all logging goes to stderr so
 * stdout tables stay byte-identical across --jobs values.
 */
inline void
buildAllArtifacts(const BenchOptions &options)
{
    auto &engine = detail::engineSlot();
    TEPIC_ASSERT(engine == nullptr,
                 "buildAllArtifacts() called twice");
    engine = std::make_unique<core::ArtifactEngine>(options.jobs);

    std::vector<const workloads::Workload *> selected;
    if (options.workloads.empty()) {
        for (const auto &w : workloads::allWorkloads())
            selected.push_back(&w);
    } else {
        for (const auto &name : options.workloads)
            selected.push_back(&workloads::workloadByName(name));
    }

    std::vector<core::BuildRequest> requests;
    requests.reserve(selected.size());
    for (const auto *w : selected) {
        TEPIC_INFORM("[bench] requesting {",
                     options.request.toString(), "} for ", w->name);
        requests.push_back(core::BuildRequest{
            w->source, options.request, {}, w->name});
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<const core::Artifacts>> built;
    {
        TEPIC_TRACE_SPAN("bench.build_artifacts", "bench");
        built = engine->buildMany(requests);
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);

    auto &list = detail::artifactsSlot();
    for (std::size_t i = 0; i < selected.size(); ++i) {
        list.push_back(NamedArtifacts{selected[i]->name,
                                      selected[i]->isDspKernel,
                                      std::move(built[i])});
    }

    const auto stats = engine->stats();
    TEPIC_INFORM("[bench] built ", list.size(), " workloads in ",
                 elapsed.count(), " ms with ", engine->jobs(),
                 " jobs (", stats.compiles, " compiles, ",
                 stats.huffmanImages(), " huffman images, ",
                 stats.tailoredImages, " tailored, ", stats.attBuilds,
                 " ATTs, ", stats.cacheHits, " cache hits)");
}

/**
 * Snapshot the process metrics (engine + fetch + phase timings) and
 * report them: a human summary on stderr, `--metrics=` JSON if asked
 * for, and BENCH_fetch.json whenever the binary ran fetch
 * simulations. Must run before google-benchmark's timed loops — they
 * re-run fetch sims with machine-dependent iteration counts, which
 * would poison the deterministic counter section.
 */
inline void
reportBenchSummary(const BenchOptions &options)
{
    auto &metrics = support::MetricsRegistry::global();
    benchEngine().exportMetrics(metrics);

    // Size provenance: fold every built artifact's ledger into the
    // deterministic size.* counter namespace (suite order, so the
    // fold is reproducible) and emit the SIZE_<name>.json treemap
    // artifact alongside the BENCH_<name>.json snapshot.
    std::vector<core::SizeReportEntry> size_entries;
    for (const auto &named : detail::artifactsSlot()) {
        core::recordSizeMetrics(named.artifacts(), metrics);
        if (!core::collectSizeLedgers(named.artifacts()).empty()) {
            size_entries.push_back(
                core::SizeReportEntry{named.name, named.ptr.get()});
        }
    }
    if (!size_entries.empty()) {
        const std::string size_json =
            "SIZE_" + options.benchName + ".json";
        core::writeSizeReport(size_json, options.benchName,
                              size_entries);
        TEPIC_INFORM("[bench] wrote size report to ", size_json);
    }

    const auto stats = benchEngine().stats();
    TEPIC_INFORM("[bench] engine cache: ", stats.cacheHits, " hits / ",
                 stats.cacheMisses, " misses");
    for (const auto &[name, stat] : metrics.timingsSnapshot()) {
        TEPIC_INFORM("[bench] phase ", name, ": sum=", stat.sum(),
                     " ms over ", stat.count(), " samples (mean=",
                     stat.mean(), " ms)");
    }

    // Host-performance attribution: fold the profiler's per-phase
    // counters (runtime section) and throughput gauges into the
    // registry, then write the per-binary PROF_<name>.json rollup.
    // Runs before the BENCH snapshot below so the prof.* gauges are
    // part of it.
    support::prof::exportMetricsTo(metrics);
    const std::string prof_json = "PROF_" + options.benchName + ".json";
    if (support::prof::writeReport(prof_json, options.benchName,
                                   metrics)) {
        TEPIC_INFORM("[bench] wrote profile report to ", prof_json);
    }

    // Scheduling observability: fold the exact-gated sched.* counters
    // into the registry (part of the BENCH snapshot below) and write
    // the per-binary SCHED_<name>.json task-graph report
    // (tools/tepic_reports.py renders and gates it).
    support::sched::exportMetricsTo(metrics);
    const std::string sched_json =
        "SCHED_" + options.benchName + ".json";
    if (support::sched::writeReport(sched_json, options.benchName)) {
        TEPIC_INFORM("[bench] wrote sched report to ", sched_json);
    }

    // Cache-behavior observability: write the per-binary
    // CACHE_<name>.json report (tools/tepic_reports.py validates,
    // renders and --compare-gates it; the cache.<scheme>.* counters
    // were folded into the registry by runFetch as the print phase
    // ran). The session ends here so the timed loops below re-run
    // the fetch sims unrecorded, at full speed.
    const std::string cache_json =
        "CACHE_" + options.benchName + ".json";
    if (fetch::cachestats::writeReport(cache_json,
                                       options.benchName)) {
        TEPIC_INFORM("[bench] wrote cache report to ", cache_json);
    }
    fetch::cachestats::endSession();

    // Dynamic-behavior observability: same lifecycle as the CACHE
    // report above — HOT_<name>.json is written (tools/tepic_reports.py
    // validates, renders and --compare-gates it) and the session
    // ends before the timed loops so they run unrecorded.
    const std::string hot_json = "HOT_" + options.benchName + ".json";
    if (fetch::hotstats::writeReport(hot_json, options.benchName)) {
        TEPIC_INFORM("[bench] wrote hot report to ", hot_json);
    }
    fetch::hotstats::endSession();

    if (!options.metricsPath.empty()) {
        metrics.writeJsonFile(options.metricsPath);
        TEPIC_INFORM("[bench] wrote metrics to ", options.metricsPath);
    }
    // Canonical per-binary snapshot: the regression-gate baseline
    // (tools/check_regression.py) and fidelity report
    // (tools/tepic_report.py) key off this name.
    const std::string bench_json =
        "BENCH_" + options.benchName + ".json";
    metrics.writeJsonFile(bench_json);
    TEPIC_INFORM("[bench] wrote bench metrics to ", bench_json);
    if (metrics.hasCounterWithPrefix("fetch.")) {
        metrics.writeJsonFile("BENCH_fetch.json");
        TEPIC_INFORM("[bench] wrote fetch metrics to BENCH_fetch.json");
    }
}

/** Artefacts for every selected workload, in suite order. */
inline const std::vector<NamedArtifacts> &
allArtifacts()
{
    const auto &list = detail::artifactsSlot();
    TEPIC_ASSERT(!list.empty(),
                 "allArtifacts() used before buildAllArtifacts() — "
                 "bench binaries must go through TEPIC_BENCH_MAIN");
    return list;
}

/** Lookup by workload name; null when not in the selected subset. */
inline const NamedArtifacts *
findArtifacts(const std::string &name)
{
    for (const auto &named : allArtifacts())
        if (named.name == name)
            return &named;
    return nullptr;
}

/**
 * Standard bench main: parse the shared CLI layer, build the
 * requested artefacts, print the table, then run timings.
 */
#define TEPIC_BENCH_MAIN(print_fn, default_request)                    \
    int                                                                \
    main(int argc, char **argv)                                        \
    {                                                                  \
        const auto bench_options = ::tepic::bench::parseBenchOptions(  \
            &argc, argv, (default_request));                           \
        ::tepic::support::prof::startSession();                        \
        ::tepic::support::sched::startSession(bench_options.jobs);     \
        ::tepic::fetch::cachestats::startSession();                    \
        ::tepic::fetch::hotstats::startSession();                      \
        if (!bench_options.profCollapsePath.empty())                   \
            ::tepic::support::prof::startSampling();                   \
        if (!bench_options.tracePath.empty())                          \
            ::tepic::support::trace::start(bench_options.tracePath);   \
        ::tepic::bench::buildAllArtifacts(bench_options);              \
        print_fn();                                                    \
        ::tepic::bench::reportBenchSummary(bench_options);             \
        ::benchmark::Initialize(&argc, argv);                          \
        ::benchmark::RunSpecifiedBenchmarks();                         \
        if (!bench_options.tracePath.empty())                          \
            ::tepic::support::trace::stop();                           \
        if (!bench_options.profCollapsePath.empty()) {                 \
            ::tepic::support::prof::stopSampling();                    \
            ::tepic::support::prof::writeCollapsed(                    \
                bench_options.profCollapsePath);                       \
        }                                                              \
        return 0;                                                      \
    }

} // namespace tepic::bench

#endif // TEPIC_BENCH_COMMON_HH
