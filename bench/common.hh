/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses, built on the
 * parallel artifact engine. Every bench binary follows the same
 * pattern:
 *
 *   1. parse the shared CLI layer (BenchOptions) through support/cli.hh;
 *      a rejected flag, value or argument, unknown workloads and
 *      artefact kinds included, exits 2,
 *   2. build the requested artefacts for the requested workloads —
 *      up front, in main, so build failures surface before any row
 *      is printed,
 *   3. print the reproduced table/figure rows (the deliverable),
 *   4. snapshot observability: write every core::reports report,
 *      --metrics=/BENCH_<name>.json/BENCH_fetch.json and print the
 *      engine cache summary to stderr,
 *   5. flush the --trace= and --prof-collapse= files and exit 1 if
 *      any output, standard output included, could not be written.
 *
 * Each binary declares the artefact kinds it consumes via
 * TEPIC_BENCH_MAIN's request argument and the engine builds nothing
 * else; `--schemes=` replaces that set. With no request there is no
 * shared engine: a harness that drives its own reads benchOptions().
 * Output is bit-identical for any `--jobs=` (tests/test_engine).
 */

#ifndef TEPIC_BENCH_COMMON_HH
#define TEPIC_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "core/reports.hh"
#include "support/cli.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/text_file.hh"
#include "support/trace.hh"
#include "workloads/workload.hh"

namespace tepic::bench {

/** The shared CLI layer. */
struct BenchOptions
{
    /// --workloads= in order; the full suite when not given.
    std::vector<const workloads::Workload *> workloads;
    core::ArtifactRequest request;       ///< what to build
    unsigned jobs = 0;                   ///< 0 = hardware concurrency
    std::string tracePath;               ///< Chrome trace JSON out
    std::string metricsPath;             ///< metrics JSON out
    std::string profCollapsePath;        ///< collapsed-stack out
    std::string benchName;               ///< argv[0] basename
};

/** The harness CLI contract, shared by every bench binary. */
inline std::string
benchUsage(const std::string &bench_name)
{
    return "usage: " + bench_name +
           " [options]\n"
           "  --workloads=a,b       run a workload subset (default: all)\n"
           "  --schemes=s1,s2       artefact kinds to build (see\n"
           "                        core::ArtifactRequest::parse)\n"
           "  --jobs=N              engine parallelism (0 = hardware)\n"
           "  --trace=FILE          write a Chrome trace JSON\n"
           "  --metrics=FILE        write the metrics snapshot JSON\n"
           "  --prof-collapse=FILE  sample the run; write FlameGraph\n"
           "                        collapsed stacks\n"
           "  --log-level=LEVEL     debug|info|warn|error|none\n"
           "  --help                print this and exit\n";
}

/**
 * Parse the harness flags. `--schemes=` replaces the binary's default
 * request but inherits its trace bit (traces are an input of the
 * fetch sims, not a scheme a user would think to list). A rejected
 * flag or value — an unknown workload or artefact kind included — or
 * any other argument exits 2.
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv,
                  core::ArtifactRequest default_request)
{
    namespace cli = support::cli;
    BenchOptions options;
    options.request = default_request;
    // argv[0]'s basename is the canonical bench name.
    if (argc > 0)
        options.benchName = std::filesystem::path(argv[0]).filename();
    if (options.benchName.empty())
        options.benchName = "bench";
    const std::string usage = benchUsage(options.benchName);
    const cli::Flag flags[] = {
        {"--workloads=",
         [&](const std::string &v) {
             for (const std::string &name : cli::splitCsv(v))
                 options.workloads.push_back(&workloads::workloadByName(name));
         }},
        {"--schemes=",
         [&](const std::string &v) {
             auto parsed = core::ArtifactRequest::parse(v);
             if (default_request.has(core::ArtifactKind::kTrace))
                 parsed = parsed.with(core::ArtifactKind::kTrace);
             options.request = parsed;
         }},
        cli::jobs(options.jobs),
        cli::text("--trace=", options.tracePath),
        cli::text("--metrics=", options.metricsPath),
        cli::text("--prof-collapse=", options.profCollapsePath),
        {"--help",
         [&](const std::string &) {
             std::fputs(usage.c_str(), stdout);
             std::exit(support::stdoutStatus(options.benchName.c_str(), 0));
         }},
    };
    cli::checked(options.benchName, usage, [&] {
        for (const char *arg : cli::parse(argc, argv, flags))
            throw cli::UsageError("unexpected argument '" +
                                  std::string(arg) + "'");
    });
    if (options.workloads.empty()) {
        for (const auto &w : workloads::allWorkloads())
            options.workloads.push_back(&w);
    }
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

/** The process-wide harness state benchMain() fills in. */
struct State
{
    BenchOptions options;
    std::unique_ptr<core::ArtifactEngine> engine;
    std::vector<NamedArtifacts> artifacts;
};

inline State &
state()
{
    static State state;
    return state;
}

} // namespace detail

/** The parsed command line; valid once benchMain() has parsed it. */
inline const BenchOptions &
benchOptions()
{
    return detail::state().options;
}

/** The binary's engine; valid after buildAllArtifacts(). */
inline core::ArtifactEngine &
benchEngine()
{
    auto &engine = detail::state().engine;
    TEPIC_ASSERT(engine != nullptr,
                 "benchEngine() used before buildAllArtifacts()");
    return *engine;
}

/**
 * Build the requested artefacts for every selected workload, batched
 * through the engine. Called from TEPIC_BENCH_MAIN before any table
 * printing; all logging goes to stderr so stdout tables stay
 * byte-identical across --jobs values.
 */
inline void
buildAllArtifacts(const BenchOptions &options)
{
    auto &engine = detail::state().engine;
    TEPIC_ASSERT(engine == nullptr,
                 "buildAllArtifacts() called twice");
    engine = std::make_unique<core::ArtifactEngine>(options.jobs);

    std::vector<core::BuildRequest> requests;
    const auto &selected = options.workloads;
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

    auto &list = detail::state().artifacts;
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
 * binary ran fetch simulations. Ends the report sessions. Returns
 * false if a write failed.
 */
inline bool
reportBenchSummary(const BenchOptions &options)
{
    auto &metrics = support::MetricsRegistry::global();
    std::vector<core::SizeReportEntry> artifacts;
    if (detail::state().engine != nullptr) {
        benchEngine().exportMetrics(metrics);
        const auto stats = benchEngine().stats();
        TEPIC_INFORM("[bench] engine cache: ", stats.cacheHits,
                     " hits / ", stats.cacheMisses, " misses");
        for (const auto &named : detail::state().artifacts) {
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
    const auto &list = detail::state().artifacts;
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
 * nullopt), run @p print_fn, then report. Exits 1 when a requested
 * output or standard output could not be written.
 */
inline int
benchMain(int argc, char **argv, void (*print_fn)(),
          std::optional<core::ArtifactRequest> request)
{
    const BenchOptions &options = detail::state().options =
        parseBenchOptions(argc, argv,
                          request.value_or(core::ArtifactRequest{}));
    core::reports::startSessions(options.jobs);
    if (!options.profCollapsePath.empty())
        support::prof::startSampling();
    if (!options.tracePath.empty())
        support::trace::start(options.tracePath);
    if (request)
        buildAllArtifacts(options);
    print_fn();
    bool ok = reportBenchSummary(options);
    if (!options.tracePath.empty())
        ok = support::trace::stop() && ok;
    if (!options.profCollapsePath.empty()) {
        support::prof::stopSampling();
        ok = support::prof::writeCollapsed(options.profCollapsePath) && ok;
    }
    return support::stdoutStatus(options.benchName.c_str(), ok ? 0 : 1);
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
