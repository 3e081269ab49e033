/**
 * @file
 * The session-scoped report store behind fetch::cachestats and
 * fetch::hotstats: core::runFetch() merges each simulation's record
 * under its (workload, scheme) label while a session is on, and
 * reportJson() renders {"schema", "name", "structure": {"workloads"}}.
 *
 * A Stats type plugs in with `recorded`, `merge(other)`, its schema id
 * `kReportSchema`, a free `writeScheme(json, stats)` (found by ADL)
 * writing one record into a support::JsonWriter, and
 * `sameShape(other)`/`shapeKey()`: a record whose shape differs from
 * the stored one (a sweep's cache geometry, a relayout's block count)
 * is keyed apart under "<workload><shapeKey()>", so merge() never
 * crosses shapes.
 */

#ifndef TEPIC_FETCH_REPORT_STORE_HH
#define TEPIC_FETCH_REPORT_STORE_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "fetch/cycle_model.hh"
#include "support/metrics.hh"
#include "support/text_file.hh"

namespace tepic::fetch {

template <typename Stats>
class ReportStore
{
  public:
    ReportStore() = delete;

    /** Runtime switch; one relaxed atomic load. */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Reset the store and enable recording. */
    static void
    startSession()
    {
        enabled_.store(false, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            records().clear();
        }
        enabled_.store(true, std::memory_order_release);
    }

    /** Disable recording; recorded data stays until the next start. */
    static void
    endSession()
    {
        enabled_.store(false, std::memory_order_relaxed);
    }

    /** Merge one simulation's record under (@p workload, @p scheme). */
    static void
    record(const std::string &workload, SchemeClass scheme,
           const Stats &stats)
    {
        if (!enabled() || !stats.recorded)
            return;
        const std::string key = workload.empty() ? "-" : workload;
        const std::string scheme_name = schemeClassName(scheme);
        std::lock_guard<std::mutex> lock(mutex_);
        Stats &slot = records()[key][scheme_name];
        if (slot.recorded && !slot.sameShape(stats)) {
            records()[key + stats.shapeKey()][scheme_name].merge(stats);
            return;
        }
        slot.merge(stats);
    }

    /**
     * Render the report. Everything under "structure" is exact-gated
     * across --jobs (a record is a pure function of trace + config).
     */
    static std::string
    reportJson(const std::string &name)
    {
        support::JsonWriter json;
        json.object();
        json.key("schema").value(Stats::kReportSchema);
        json.key("name").value(name);
        json.key("structure").object();
        json.key("workloads").object();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[workload, schemes] : records()) {
            json.key(workload).object();
            for (const auto &[scheme, stats] : schemes) {
                json.key(scheme);
                writeScheme(json, stats);
            }
            json.end();
        }
        return json.end().end().end().take();
    }

    /** reportJson() to a file; warns (returns false) on I/O failure. */
    static bool
    writeReport(const std::string &path, const std::string &name)
    {
        return support::writeTextFile(path, reportJson(name),
                                      Stats::kReportSchema);
    }

    /** Drop all recorded state and disable (tests only). */
    static void
    resetForTest()
    {
        enabled_.store(false, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        records().clear();
    }

  private:
    /** workload -> scheme name -> merged record; std::map so report
     *  iteration order is deterministic. */
    using Records = std::map<std::string, std::map<std::string, Stats>>;

    static Records &
    records()
    {
        static Records r;
        return r;
    }

    static inline std::atomic<bool> enabled_{false};
    static inline std::mutex mutex_;
};

} // namespace tepic::fetch

#endif // TEPIC_FETCH_REPORT_STORE_HH
