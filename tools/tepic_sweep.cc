/**
 * @file
 * tepic-sweep — the design-space sweep driver CLI.
 *
 * Expands a configuration grid (schemes x cache geometry x L0 x ATB x
 * predictor x penalty profile), evaluates every (workload, config)
 * point over one memoized ArtifactEngine — each distinct control and
 * memory stream simulated once, the points folded from their hit bits
 * — and writes the tepic-sweep-v1 report (core/sweep.hh): per-point
 * records, per-config aggregates and the Pareto front over size / IPC
 * / decoder cost / bus bit flips. The structure section is
 * byte-identical for any --jobs value; tools/tepic_reports.py
 * re-derives every invariant from the file and renders the
 * Markdown/SVG views. Bad flags or grid input exit 2 with a usage
 * message; a failure while sweeping exits 1.
 *
 *   tepic-sweep --preset=ci --jobs=4 --out=SWEEP_ci.json
 *   tepic-sweep --workloads=fir --sets=128,256 --ways=1,2
 */

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/sweep.hh"
#include "fetch/cycle_model.hh"
#include "fetch/predictor.hh"
#include "support/cli.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/text_file.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;

constexpr std::string_view kUsage =
    "usage: tepic-sweep [flags]\n"
    "  --name=<name>        report name (default: sweep)\n"
    "  --out=<file>         output path (default: SWEEP_<name>.json)\n"
    "  --jobs=N             simulation fan-out "
    "(1 = serial, 0 = hardware; default 1)\n"
    "  --preset=paper|ci    grid preset (default: paper)\n"
    "  --workloads=a,b      workload names (see tepicc workloads)\n"
    "  --schemes=s,..       base|compressed|tailored\n"
    "  --sets=n,..          L1 set counts (sets x ways <= 65536)\n"
    "  --ways=n,..          L1 associativities\n"
    "  --line-bytes=n,..    L1 line sizes\n"
    "  --l0=n,..            L0 capacities in ops (compressed only)\n"
    "  --atb=n,..           ATB entry counts\n"
    "  --predictors=p,..    bimodal|gshare|pas\n"
    "  --penalties=p,..     paper|slowmem|deeppipe\n"
    "  --no-3c              skip the 3C miss classification\n"
    "  --metrics=<file>     metrics registry JSON\n"
    "  --log-level=debug|info|warn|error|none\n";

struct Options
{
    std::string name = "sweep";
    std::string outPath;
    std::string metricsPath;
    core::sweep::SweepOptions sweep;
};

/** The command line; a rejected flag, value or name exits 2. */
Options
parseArgs(int argc, char **argv)
{
    namespace cli = support::cli;
    using core::sweep::SweepGrid;
    using fetch::PredictorKind;
    using fetch::SchemeClass;
    Options opts;
    SweepGrid &grid = opts.sweep.grid;
    const cli::Flag flags[] = {
        cli::text("--name=", opts.name),
        cli::text("--out=", opts.outPath),
        cli::jobs(opts.sweep.jobs),
        {"--preset=",
         [&](const std::string &v) {
             grid = cli::choice<SweepGrid (*)()>(
                 "--preset", v,
                 {{"paper", &SweepGrid::paperPoint},
                  {"ci", &SweepGrid::ci}})();
         }},
        {"--workloads=",
         [&](const std::string &v) { grid.workloads = cli::splitCsv(v); }},
        {"--schemes=",
         [&](const std::string &v) {
             grid.schemes = cli::choiceList<SchemeClass>(
                 "--schemes", v,
                 {{"base", SchemeClass::kBase},
                  {"compressed", SchemeClass::kCompressed},
                  {"tailored", SchemeClass::kTailored}});
         }},
        cli::positiveList("--sets=", grid.cacheSets),
        cli::positiveList("--ways=", grid.cacheWays),
        cli::positiveList("--line-bytes=", grid.lineBytes),
        cli::positiveList("--l0=", grid.l0CapacityOps),
        cli::positiveList("--atb=", grid.atbEntries),
        {"--predictors=",
         [&](const std::string &v) {
             grid.predictors = cli::choiceList<PredictorKind>(
                 "--predictors", v,
                 {{"bimodal", PredictorKind::kBimodal},
                  {"2bit", PredictorKind::kBimodal},
                  {"gshare", PredictorKind::kGshare},
                  {"pas", PredictorKind::kPas},
                  {"PAs", PredictorKind::kPas}});
         }},
        {"--penalties=",
         [&](const std::string &v) {
             grid.penaltyProfiles = cli::splitCsv(v);
             for (const std::string &profile : grid.penaltyProfiles)
                 core::sweep::penaltyProfileByName(profile);
         }},
        {"--no-3c", [&](const std::string &) { opts.sweep.record3c = false; }},
        cli::text("--metrics=", opts.metricsPath),
    };
    cli::checked("tepic-sweep", kUsage, [&] {
        for (const char *arg : cli::parse(argc, argv, flags))
            throw cli::UsageError("unknown flag '" + std::string(arg) + "'");
        // One L1 holds sets x ways lines: bound the product as well.
        for (unsigned sets : grid.cacheSets) {
            for (unsigned ways : grid.cacheWays) {
                if (std::uint64_t(sets) * ways > cli::kMaxTableSize) {
                    throw cli::UsageError(
                        "--sets x --ways wants at most " +
                        std::to_string(cli::kMaxTableSize) +
                        " lines, got " + std::to_string(sets) + " x " +
                        std::to_string(ways));
                }
            }
        }
        if (grid.workloads.empty())
            throw cli::UsageError("--workloads is empty");
        for (const std::string &workload : grid.workloads)
            workloads::workloadByName(workload);
    });
    if (opts.outPath.empty())
        opts.outPath = "SWEEP_" + opts.name + ".json";
    return opts;
}

/** The sweep; main() then checks standard output. */
int
run(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    // One engine for the whole sweep: every workload's artefacts are
    // built exactly once, whatever the grid size.
    core::ArtifactEngine engine(opts.sweep.jobs);
    core::sweep::SweepResult result;
    try {
        result = core::sweep::runSweep(engine, opts.sweep);
    } catch (const support::FatalError &error) {
        std::fprintf(stderr, "tepic-sweep: error: %s\n",
                     error.message().c_str());
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tepic-sweep: internal error: %s\n",
                     error.what());
        return 1;
    }

    if (!support::writeTextFile(opts.outPath,
                                core::sweep::reportJson(result, opts.name),
                                "sweep report"))
        return 1;

    core::sweep::exportMetricsTo(support::MetricsRegistry::global(),
                                 result);
    engine.exportMetrics(support::MetricsRegistry::global());
    if (!opts.metricsPath.empty() &&
        !support::MetricsRegistry::global().writeJsonFile(
            opts.metricsPath))
        return 1;

    std::printf("tepic-sweep: %zu configs, %zu points, front %zu "
                "(%llu ms, jobs %u) -> %s\n",
                result.configs.size(), result.points.size(),
                result.front.size(),
                (unsigned long long)result.wallMs, result.jobs,
                opts.outPath.c_str());
    for (std::size_t idx : result.front) {
        const core::sweep::AggregateRecord &a = result.aggregates[idx];
        std::printf("  front: %-70s size %llu ipc_e6 %llu "
                    "decoder %llu flips %llu\n",
                    a.key.c_str(), (unsigned long long)a.sizeBits,
                    (unsigned long long)a.ipcE6(),
                    (unsigned long long)a.decoderTransistors,
                    (unsigned long long)a.busBitFlips);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return support::stdoutStatus("tepic-sweep", run(argc, argv));
}
