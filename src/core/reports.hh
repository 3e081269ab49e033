/**
 * @file
 * The one report lifecycle: which session-scoped reports exist (host
 * time, task graph, cache behavior, hotness, code size), that each is
 * written as <KIND>_<name>.json, and their order — startSessions()
 * before the work, writeReports() after it, endSessions() before a
 * bench's timed loops (CACHE/HOT recording slows every fetch sim).
 * Benches (bench/common.hh) and tepicc --report-dir= are the callers.
 */

#ifndef TEPIC_CORE_REPORTS_HH
#define TEPIC_CORE_REPORTS_HH

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "support/metrics.hh"

namespace tepic::core::reports {

/**
 * Start every recording session (prof, sched, cachestats, hotstats).
 * @p jobs is the engine parallelism, recorded into SCHED.
 */
void startSessions(unsigned jobs);

/**
 * Export every report's counters into @p metrics (prof throughput
 * gauges, sched.*, and size.* for each of @p artifacts), then write
 * <KIND>_<name>.json for PROF, SCHED, CACHE, HOT and SIZE, in that
 * order, into @p dir, creating it if needed. SIZE covers the artifacts
 * that built an image and is not written when none did. An empty
 * @p dir exports the counters only. Returns false if any file could
 * not be written (each failure warns).
 */
bool writeReports(const std::string &dir, const std::string &name,
                  const std::vector<SizeReportEntry> &artifacts,
                  support::MetricsRegistry &metrics);

/** End the recording sessions; recorded data stays until restart. */
void endSessions();

} // namespace tepic::core::reports

#endif // TEPIC_CORE_REPORTS_HH
