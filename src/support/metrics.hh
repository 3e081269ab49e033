/**
 * @file
 * Process-wide metrics registry with a stable JSON export schema.
 *
 * Three named sections, every one deterministic:
 *
 *   counters    uint64 sums           deterministic across --jobs
 *   gauges      doubles (last write)  deterministic across --jobs
 *   histograms  support::Histogram    deterministic across --jobs
 *
 * Every section is bit-identical for any engine --jobs value (the
 * same guarantee as the artifact engine's outputs) and for two runs
 * of the same binary: tools/tepic_reports.py --compare and --diff
 * check all three. Wall-clock data has its own homes — PROF's phase
 * times, SCHED's task timeline, SWEEP's timing section — and never
 * enters the registry. Registries merge per-name in the caller's
 * order — the same ordered-reduction discipline as Histogram::merge —
 * so parallel code can keep one registry per task and fold
 * deterministically.
 *
 * All recording methods are thread-safe (one internal mutex); hot
 * loops should accumulate locally and record once at the end.
 */

#ifndef TEPIC_SUPPORT_METRICS_HH
#define TEPIC_SUPPORT_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json_writer.hh"
#include "support/stats.hh"

namespace tepic::support {

/**
 * @p hist as one inline object: total, overflow, overflow_threshold
 * (bounded histograms only) and bins as [key, weight] pairs.
 */
void writeHistogram(JsonWriter &json, const Histogram &hist);

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    void addCounter(std::string_view name, std::uint64_t delta = 1);
    void setGauge(std::string_view name, double value);
    void sampleHistogram(std::string_view name, std::int64_t key,
                         std::uint64_t weight = 1);
    /** Fold a locally-built (possibly bounded) histogram in. */
    void mergeHistogram(std::string_view name, const Histogram &hist);

    // --- aggregation ---------------------------------------------------

    /** Fold @p other in, per name. Not safe with other == this. */
    void merge(const MetricsRegistry &other);

    void clear();
    bool empty() const;

    // --- reads (absent names return zero-values) -----------------------

    std::uint64_t counter(std::string_view name) const;
    double gauge(std::string_view name) const;
    Histogram histogram(std::string_view name) const;

    std::vector<std::string> counterNames() const;
    std::vector<std::string> gaugeNames() const;
    bool hasCounterWithPrefix(std::string_view prefix) const;

    // --- export --------------------------------------------------------

    /** Render the whole registry as schema "tepic-metrics-v1". */
    std::string toJson() const;

    /** toJson() to a file; warns (and returns false) on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

    /** The process-wide registry. */
    static MetricsRegistry &global();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_METRICS_HH
