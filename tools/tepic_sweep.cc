/**
 * @file
 * tepic-sweep — the design-space sweep driver CLI.
 *
 * Expands a configuration grid (schemes x cache geometry x L0 x ATB x
 * predictor x penalty profile), simulates every (workload, config)
 * point through one memoized ArtifactEngine, and writes the
 * tepic-sweep-v1 report (core/sweep.hh): per-point records, per-config
 * aggregates and the Pareto front over size / IPC / decoder cost /
 * bus bit flips. The structure section is byte-identical for any
 * --jobs value; tools/tepic_reports.py re-derives every invariant from
 * the file and renders the Markdown/SVG views.
 *
 *   tepic-sweep --preset=ci --jobs=4 --out=SWEEP_ci.json
 *   tepic-sweep --workloads=fir --sets=128,256 --ways=1,2
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/artifact_engine.hh"
#include "core/sweep.hh"
#include "fetch/cycle_model.hh"
#include "fetch/predictor.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace {

using namespace tepic;

int
usage()
{
    std::fprintf(stderr,
        "usage: tepic-sweep [flags]\n"
        "  --name=<name>        report name (default: sweep)\n"
        "  --out=<file>         output path (default: "
        "SWEEP_<name>.json)\n"
        "  --jobs=N             simulation fan-out "
        "(1 = serial, 0 = hardware; default 1)\n"
        "  --preset=paper|ci    grid preset (default: paper)\n"
        "  --workloads=a,b      workload names "
        "(see tepicc workloads)\n"
        "  --schemes=s,..       base|compressed|tailored\n"
        "  --sets=n,..          L1 set counts\n"
        "  --ways=n,..          L1 associativities\n"
        "  --line-bytes=n,..    L1 line sizes\n"
        "  --l0=n,..            L0 capacities in ops "
        "(compressed only)\n"
        "  --atb=n,..           ATB entry counts\n"
        "  --predictors=p,..    bimodal|gshare|pas\n"
        "  --penalties=p,..     paper|slowmem|deeppipe\n"
        "  --no-3c              skip the 3C miss classification\n"
        "  --metrics=<file>     metrics registry JSON\n"
        "  --log-level=debug|info|warn|error|none\n");
    return 2;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::string item;
    for (char c : csv) {
        if (c == ',') {
            if (!item.empty())
                out.push_back(item);
            item.clear();
        } else {
            item += c;
        }
    }
    if (!item.empty())
        out.push_back(item);
    return out;
}

std::vector<unsigned>
parseUnsignedList(const char *flag, const std::string &csv)
{
    std::vector<unsigned> out;
    for (const std::string &item : splitCsv(csv)) {
        char *end = nullptr;
        const unsigned long value = std::strtoul(item.c_str(), &end, 10);
        if (end == item.c_str() || *end != '\0' || value == 0) {
            std::fprintf(stderr,
                         "tepic-sweep: %s wants positive integers, "
                         "got '%s'\n", flag, item.c_str());
            std::exit(2);
        }
        out.push_back(unsigned(value));
    }
    if (out.empty()) {
        std::fprintf(stderr, "tepic-sweep: %s is empty\n", flag);
        std::exit(2);
    }
    return out;
}

std::vector<fetch::SchemeClass>
parseSchemes(const std::string &csv)
{
    std::vector<fetch::SchemeClass> out;
    for (const std::string &item : splitCsv(csv)) {
        if (item == "base")
            out.push_back(fetch::SchemeClass::kBase);
        else if (item == "compressed")
            out.push_back(fetch::SchemeClass::kCompressed);
        else if (item == "tailored")
            out.push_back(fetch::SchemeClass::kTailored);
        else {
            std::fprintf(stderr,
                         "tepic-sweep: unknown scheme '%s' (expected "
                         "base|compressed|tailored)\n", item.c_str());
            std::exit(2);
        }
    }
    if (out.empty()) {
        std::fprintf(stderr, "tepic-sweep: --schemes is empty\n");
        std::exit(2);
    }
    return out;
}

std::vector<fetch::PredictorKind>
parsePredictors(const std::string &csv)
{
    std::vector<fetch::PredictorKind> out;
    for (const std::string &item : splitCsv(csv)) {
        if (item == "bimodal" || item == "2bit")
            out.push_back(fetch::PredictorKind::kBimodal);
        else if (item == "gshare")
            out.push_back(fetch::PredictorKind::kGshare);
        else if (item == "pas" || item == "PAs")
            out.push_back(fetch::PredictorKind::kPas);
        else {
            std::fprintf(stderr,
                         "tepic-sweep: unknown predictor '%s' "
                         "(expected bimodal|gshare|pas)\n",
                         item.c_str());
            std::exit(2);
        }
    }
    if (out.empty()) {
        std::fprintf(stderr, "tepic-sweep: --predictors is empty\n");
        std::exit(2);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = "sweep";
    std::string outPath;
    std::string metricsPath;
    core::sweep::SweepOptions options;
    options.grid = core::sweep::SweepGrid::paperPoint();

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--name=", 7) == 0)
            name = arg + 7;
        else if (std::strncmp(arg, "--out=", 6) == 0)
            outPath = arg + 6;
        else if (std::strncmp(arg, "--jobs=", 7) == 0)
            options.jobs = unsigned(std::strtoul(arg + 7, nullptr, 10));
        else if (std::strncmp(arg, "--preset=", 9) == 0) {
            const std::string preset = arg + 9;
            if (preset == "paper")
                options.grid = core::sweep::SweepGrid::paperPoint();
            else if (preset == "ci")
                options.grid = core::sweep::SweepGrid::ci();
            else {
                std::fprintf(stderr,
                             "tepic-sweep: unknown preset '%s' "
                             "(expected paper|ci)\n", preset.c_str());
                return 2;
            }
        } else if (std::strncmp(arg, "--workloads=", 12) == 0)
            options.grid.workloads = splitCsv(arg + 12);
        else if (std::strncmp(arg, "--schemes=", 10) == 0)
            options.grid.schemes = parseSchemes(arg + 10);
        else if (std::strncmp(arg, "--sets=", 7) == 0)
            options.grid.cacheSets =
                parseUnsignedList("--sets", arg + 7);
        else if (std::strncmp(arg, "--ways=", 7) == 0)
            options.grid.cacheWays =
                parseUnsignedList("--ways", arg + 7);
        else if (std::strncmp(arg, "--line-bytes=", 13) == 0)
            options.grid.lineBytes =
                parseUnsignedList("--line-bytes", arg + 13);
        else if (std::strncmp(arg, "--l0=", 5) == 0)
            options.grid.l0CapacityOps =
                parseUnsignedList("--l0", arg + 5);
        else if (std::strncmp(arg, "--atb=", 6) == 0)
            options.grid.atbEntries =
                parseUnsignedList("--atb", arg + 6);
        else if (std::strncmp(arg, "--predictors=", 13) == 0)
            options.grid.predictors = parsePredictors(arg + 13);
        else if (std::strncmp(arg, "--penalties=", 12) == 0) {
            options.grid.penaltyProfiles = splitCsv(arg + 12);
            for (const std::string &p : options.grid.penaltyProfiles)
                core::sweep::penaltyProfileByName(p);  // validates
        } else if (std::strcmp(arg, "--no-3c") == 0)
            options.record3c = false;
        else if (std::strncmp(arg, "--metrics=", 10) == 0)
            metricsPath = arg + 10;
        else if (std::strncmp(arg, "--log-level=", 12) == 0) {
            const char *level = arg + 12;
            if (!support::isLogLevelName(level)) {
                std::fprintf(stderr,
                             "tepic-sweep: unknown --log-level '%s' "
                             "(expected debug|info|warn|error|none)\n",
                             level);
                return 2;
            }
            support::setLogThreshold(support::parseLogLevel(level));
        } else {
            std::fprintf(stderr, "tepic-sweep: unknown flag '%s'\n",
                         arg);
            return usage();
        }
    }
    if (options.grid.workloads.empty()) {
        std::fprintf(stderr, "tepic-sweep: --workloads is empty\n");
        return 2;
    }
    if (outPath.empty())
        outPath = "SWEEP_" + name + ".json";

    // One engine for the whole sweep: every workload's artefacts are
    // built exactly once, whatever the grid size.
    core::ArtifactEngine engine(options.jobs);
    const core::sweep::SweepResult result =
        core::sweep::runSweep(engine, options);

    if (!core::sweep::writeReport(outPath, name, result))
        return 1;

    core::sweep::exportMetricsTo(support::MetricsRegistry::global(),
                                 result);
    engine.exportMetrics(support::MetricsRegistry::global());
    if (!metricsPath.empty())
        support::MetricsRegistry::global().writeJsonFile(metricsPath);

    std::printf("tepic-sweep: %zu configs, %zu points, front %zu "
                "(%llu ms, jobs %u) -> %s\n",
                result.configs.size(), result.points.size(),
                result.front.size(),
                (unsigned long long)result.wallMs, result.jobs,
                outPath.c_str());
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
