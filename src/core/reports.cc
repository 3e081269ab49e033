#include "core/reports.hh"

#include <filesystem>
#include <system_error>

#include "fetch/cache_stats.hh"
#include "fetch/hot_stats.hh"
#include "support/logging.hh"
#include "support/profiler.hh"
#include "support/sched.hh"
#include "support/text_file.hh"

namespace tepic::core::reports {

namespace {

/** What a report's hooks see once the work is done. */
struct Context
{
    const std::string &name;
    const std::vector<SizeReportEntry> &artifacts;
    support::MetricsRegistry &metrics;
};

/** One row of the table: a kind and its hooks (null = no such step). */
struct Report
{
    const char *prefix;  ///< file name <prefix>_<name>.json
    const char *schema;  ///< the report's "schema" id
    void (*start)(unsigned jobs);
    void (*exportMetrics)(const Context &);
    /** The report's JSON; empty when there is nothing to write. */
    std::string (*render)(const Context &);
    void (*end)();
};

std::string
sizeJson(const Context &c)
{
    std::vector<SizeReportEntry> built;
    for (const auto &entry : c.artifacts)
        if (!collectSizeLedgers(*entry.artifacts).empty())
            built.push_back(entry);
    return built.empty() ? std::string() : sizeReportJson(c.name, built);
}

const Report kReports[] = {
    {"PROF", "tepic-prof-v1",
     [](unsigned) { support::prof::startSession(); },
     nullptr,
     [](const Context &c) {
         return support::prof::reportJson(c.name, c.metrics);
     },
     support::prof::endSession},
    {"SCHED", "tepic-sched-v1",
     support::sched::startSession,
     [](const Context &c) { support::sched::exportMetricsTo(c.metrics); },
     [](const Context &c) { return support::sched::reportJson(c.name); },
     support::sched::endSession},
    // The cache.* and hot.* counters are folded in by runFetch itself.
    {"CACHE", fetch::CacheStats::kReportSchema,
     [](unsigned) { fetch::cachestats::startSession(); },
     nullptr,
     [](const Context &c) { return fetch::cachestats::reportJson(c.name); },
     fetch::cachestats::endSession},
    {"HOT", fetch::HotStats::kReportSchema,
     [](unsigned) { fetch::hotstats::startSession(); },
     nullptr,
     [](const Context &c) { return fetch::hotstats::reportJson(c.name); },
     fetch::hotstats::endSession},
    {"SIZE", "tepic-size-v1",
     nullptr,
     [](const Context &c) {
         for (const auto &entry : c.artifacts)
             recordSizeMetrics(*entry.artifacts, c.metrics);
     },
     sizeJson,
     nullptr},
};

} // namespace

void
startSessions(unsigned jobs)
{
    for (const Report &report : kReports)
        if (report.start)
            report.start(jobs);
}

bool
writeReports(const std::string &dir, const std::string &name,
             const std::vector<SizeReportEntry> &artifacts,
             support::MetricsRegistry &metrics)
{
    const Context context{name, artifacts, metrics};
    for (const Report &report : kReports)
        if (report.exportMetrics)
            report.exportMetrics(context);
    if (dir.empty())
        return true;

    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) {
        TEPIC_WARN("cannot create report directory '", dir,
                   "': ", error.message());
        return false;
    }
    bool ok = true;
    for (const Report &report : kReports) {
        const std::string json = report.render(context);
        if (json.empty())
            continue;
        const std::string path = dir + "/" + report.prefix + "_" +
                                 name + ".json";
        if (support::writeTextFile(path, json, report.schema))
            TEPIC_INFORM("wrote ", report.prefix, " report to ",
                         path);
        else
            ok = false;
    }
    return ok;
}

void
endSessions()
{
    for (const Report &report : kReports)
        if (report.end)
            report.end();
}

} // namespace tepic::core::reports
