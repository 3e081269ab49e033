/**
 * @file
 * Process-wide metrics registry with a stable JSON export schema.
 *
 * Five named sections, split by their determinism contract:
 *
 *   counters    uint64 sums           deterministic across --jobs
 *   gauges      doubles (last write)  deterministic across --jobs
 *   histograms  support::Histogram    deterministic across --jobs
 *   timings     support::ScalarStat   wall-clock; values vary run to
 *                                     run (the *key set* is stable)
 *   runtime     uint64 sums           environment-dependent (thread
 *                                     pool task counts, queue waits)
 *
 * The first three sections are bit-identical for any engine --jobs
 * value (the same guarantee as the artifact engine's outputs); the
 * comparison tool (tools/tepic_reports.py --compare) checks exactly
 * those. Registries merge per-name in the caller's order — the same
 * ordered-reduction discipline as ScalarStat/Histogram — so parallel
 * code can keep one registry per task and fold deterministically.
 *
 * All recording methods are thread-safe (one internal mutex); hot
 * loops should accumulate locally and record once at the end.
 */

#ifndef TEPIC_SUPPORT_METRICS_HH
#define TEPIC_SUPPORT_METRICS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/stats.hh"

namespace tepic::support {

/** JSON string literal (quotes + escapes) for @p text. */
std::string jsonQuote(std::string_view text);

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    // --- deterministic sections ---------------------------------------

    void addCounter(std::string_view name, std::uint64_t delta = 1);
    void setGauge(std::string_view name, double value);
    void sampleHistogram(std::string_view name, std::int64_t key,
                         std::uint64_t weight = 1);
    /** Fold a locally-built (possibly bounded) histogram in. */
    void mergeHistogram(std::string_view name, const Histogram &hist);

    // --- wall-clock / environment sections ----------------------------

    void recordTimingMs(std::string_view name, double ms);
    void addRuntime(std::string_view name, std::uint64_t delta);

    // --- aggregation ---------------------------------------------------

    /** Fold @p other in, per name. Not safe with other == this. */
    void merge(const MetricsRegistry &other);

    void clear();
    bool empty() const;

    // --- reads (absent names return zero-values) -----------------------

    std::uint64_t counter(std::string_view name) const;
    double gauge(std::string_view name) const;
    Histogram histogram(std::string_view name) const;
    ScalarStat timing(std::string_view name) const;
    std::uint64_t runtime(std::string_view name) const;

    std::vector<std::string> counterNames() const;
    std::vector<std::string> gaugeNames() const;
    bool hasCounterWithPrefix(std::string_view prefix) const;
    std::vector<std::pair<std::string, ScalarStat>> timingsSnapshot()
        const;

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
    std::map<std::string, ScalarStat, std::less<>> timings_;
    std::map<std::string, std::uint64_t, std::less<>> runtime_;
};

/** Samples elapsed milliseconds into a timing at destruction. */
class ScopedTimerMs
{
  public:
    ScopedTimerMs(MetricsRegistry &registry, const char *name)
        : registry_(registry), name_(name),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimerMs()
    {
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        registry_.recordTimingMs(
            name_,
            std::chrono::duration<double, std::milli>(elapsed)
                .count());
    }

    ScopedTimerMs(const ScopedTimerMs &) = delete;
    ScopedTimerMs &operator=(const ScopedTimerMs &) = delete;

  private:
    MetricsRegistry &registry_;
    const char *name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_METRICS_HH
