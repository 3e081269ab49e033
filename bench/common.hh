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
 *   4. snapshot observability: write every core::reports report,
 *      --metrics=/BENCH_<name>.json/BENCH_fetch.json and print the
 *      engine cache summary to stderr (before the timing loops run,
 *      so the deterministic metric sections are untouched by
 *      machine-dependent iteration counts),
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

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <cstdlib>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "core/reports.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
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

    std::vector<std::shared_ptr<const core::Artifacts>> built;
    {
        TEPIC_TRACE_SPAN("bench.build_artifacts", "bench");
        built = engine->buildMany(requests);
    }

    auto &list = detail::artifactsSlot();
    for (std::size_t i = 0; i < selected.size(); ++i) {
        list.push_back(NamedArtifacts{selected[i]->name,
                                      selected[i]->isDspKernel,
                                      std::move(built[i])});
    }

    const auto stats = engine->stats();
    TEPIC_INFORM("[bench] built ", list.size(), " workloads with ",
                 engine->jobs(), " jobs (", stats.compiles, " compiles, ",
                 stats.huffmanImages(), " huffman images, ",
                 stats.tailoredImages, " tailored, ", stats.attBuilds,
                 " ATTs, ", stats.cacheHits, " cache hits)");
}

/**
 * Snapshot the process metrics (engine + fetch) and
 * report them: a human summary on stderr, every core::reports report
 * (<KIND>_<name>.json) in the working directory, `--metrics=` JSON if
 * asked for, BENCH_<name>.json, and BENCH_fetch.json whenever the
 * binary ran fetch simulations. Ends the report sessions, so it must
 * run before google-benchmark's timed loops — they re-run fetch sims
 * with machine-dependent iteration counts, which would poison the
 * deterministic counter section. Returns false if a write failed.
 */
inline bool
reportBenchSummary(const BenchOptions &options)
{
    auto &metrics = support::MetricsRegistry::global();
    std::vector<core::SizeReportEntry> artifacts;
    if (detail::engineSlot() != nullptr) {
        benchEngine().exportMetrics(metrics);
        const auto stats = benchEngine().stats();
        TEPIC_INFORM("[bench] engine cache: ", stats.cacheHits,
                     " hits / ", stats.cacheMisses, " misses");
        for (const auto &named : detail::artifactsSlot()) {
            artifacts.push_back(
                core::SizeReportEntry{named.name, named.ptr.get()});
        }
    }

    bool ok = core::reports::writeReports(".", options.benchName,
                                          artifacts, metrics);
    core::reports::endSessions();
    if (!options.metricsPath.empty())
        ok = metrics.writeJsonFile(options.metricsPath) && ok;
    // Canonical per-binary snapshot: the regression gate and the
    // fidelity report (tools/tepic_reports.py --diff / --fidelity) key
    // off this name.
    ok = metrics.writeJsonFile("BENCH_" + options.benchName + ".json") &&
         ok;
    if (metrics.hasCounterWithPrefix("fetch."))
        ok = metrics.writeJsonFile("BENCH_fetch.json") && ok;
    return ok;
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
 * The bench main: parse the shared CLI layer, start the report
 * sessions, build @p request's artefacts (no engine at all when it is
 * nullopt), run @p print_fn, report, then run the timings. Exits 1
 * when a requested output could not be written.
 */
inline int
benchMain(int argc, char **argv, void (*print_fn)(),
          std::optional<core::ArtifactRequest> request)
{
    const auto options = parseBenchOptions(
        &argc, argv, request.value_or(core::ArtifactRequest{}));
    core::reports::startSessions(options.jobs);
    if (!options.profCollapsePath.empty())
        support::prof::startSampling();
    if (!options.tracePath.empty())
        support::trace::start(options.tracePath);
    if (request)
        buildAllArtifacts(options);
    print_fn();
    bool ok = reportBenchSummary(options);
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    if (!options.tracePath.empty())
        ok = support::trace::stop() && ok;
    if (!options.profCollapsePath.empty()) {
        support::prof::stopSampling();
        ok = support::prof::writeCollapsed(options.profCollapsePath) && ok;
    }
    return ok ? 0 : 1;
}

/** Standard bench main over benchMain() and the engine. */
#define TEPIC_BENCH_MAIN(print_fn, default_request)                    \
    int                                                                \
    main(int argc, char **argv)                                        \
    {                                                                  \
        return ::tepic::bench::benchMain(argc, argv, print_fn,         \
                                         (default_request));           \
    }

} // namespace tepic::bench

#endif // TEPIC_BENCH_COMMON_HH
