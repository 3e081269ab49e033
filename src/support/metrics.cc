#include "support/metrics.hh"

#include <cstdio>

#include "support/logging.hh"
#include "support/text_file.hh"

namespace tepic::support {

std::string
jsonQuote(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (unsigned char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    out += '"';
    return out;
}

namespace {

std::string
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

} // namespace

void
MetricsRegistry::addCounter(std::string_view name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[std::string(name)] += delta;
}

void
MetricsRegistry::setGauge(std::string_view name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[std::string(name)] = value;
}

void
MetricsRegistry::sampleHistogram(std::string_view name,
                                 std::int64_t key,
                                 std::uint64_t weight)
{
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_[std::string(name)].sample(key, weight);
}

void
MetricsRegistry::mergeHistogram(std::string_view name,
                                const Histogram &hist)
{
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_[std::string(name)].merge(hist);
}

void
MetricsRegistry::recordTimingMs(std::string_view name, double ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    timings_[std::string(name)].sample(ms);
}

void
MetricsRegistry::addRuntime(std::string_view name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    runtime_[std::string(name)] += delta;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    TEPIC_ASSERT(&other != this, "MetricsRegistry self-merge");
    std::scoped_lock lock(mutex_, other.mutex_);
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
    for (const auto &[name, value] : other.gauges_)
        gauges_[name] = value;
    for (const auto &[name, hist] : other.histograms_)
        histograms_[name].merge(hist);
    for (const auto &[name, stat] : other.timings_)
        timings_[name].merge(stat);
    for (const auto &[name, value] : other.runtime_)
        runtime_[name] += value;
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    timings_.clear();
    runtime_.clear();
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() &&
           histograms_.empty() && timings_.empty() && runtime_.empty();
}

std::uint64_t
MetricsRegistry::counter(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

Histogram
MetricsRegistry::histogram(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? Histogram() : it->second;
}

ScalarStat
MetricsRegistry::timing(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = timings_.find(name);
    return it == timings_.end() ? ScalarStat() : it->second;
}

std::uint64_t
MetricsRegistry::runtime(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = runtime_.find(name);
    return it == runtime_.end() ? 0 : it->second;
}

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const auto &[name, value] : counters_)
        names.push_back(name);
    return names;
}

std::vector<std::string>
MetricsRegistry::gaugeNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(gauges_.size());
    for (const auto &[name, value] : gauges_)
        names.push_back(name);
    return names;
}

bool
MetricsRegistry::hasCounterWithPrefix(std::string_view prefix) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.lower_bound(prefix);
    return it != counters_.end() &&
           std::string_view(it->first).substr(0, prefix.size()) ==
               prefix;
}

std::vector<std::pair<std::string, ScalarStat>>
MetricsRegistry::timingsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {timings_.begin(), timings_.end()};
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\n  \"schema\": \"tepic-metrics-v1\"";

    const auto section = [&out](const char *name, const auto &map,
                                const auto &renderValue) {
        out += ",\n  ";
        out += jsonQuote(name);
        out += ": {";
        bool first = true;
        for (const auto &[key, value] : map) {
            out += first ? "\n    " : ",\n    ";
            first = false;
            out += jsonQuote(key);
            out += ": ";
            renderValue(value);
        }
        out += first ? "}" : "\n  }";
    };

    section("counters", counters_, [&out](std::uint64_t value) {
        out += std::to_string(value);
    });
    section("gauges", gauges_, [&out](double value) {
        out += formatDouble(value);
    });
    section("histograms", histograms_, [&out](const Histogram &hist) {
        out += "{\"total\": " + std::to_string(hist.total());
        out += ", \"overflow\": " + std::to_string(hist.overflow());
        if (hist.bounded()) {
            out += ", \"overflow_threshold\": " +
                   std::to_string(hist.overflowThreshold());
        }
        out += ", \"bins\": [";
        bool first = true;
        for (const auto &[key, weight] : hist.bins()) {
            if (!first)
                out += ", ";
            first = false;
            out += "[" + std::to_string(key) + ", " +
                   std::to_string(weight) + "]";
        }
        out += "]}";
    });
    section("timings", timings_, [&out](const ScalarStat &stat) {
        out += "{\"count\": " + std::to_string(stat.count());
        out += ", \"min\": " + formatDouble(stat.min());
        out += ", \"max\": " + formatDouble(stat.max());
        out += ", \"mean\": " + formatDouble(stat.mean());
        out += ", \"sum\": " + formatDouble(stat.sum()) + "}";
    });
    section("runtime", runtime_, [&out](std::uint64_t value) {
        out += std::to_string(value);
    });

    out += "\n}\n";
    return out;
}

bool
MetricsRegistry::writeJsonFile(const std::string &path) const
{
    return writeTextFile(path, toJson(), "metrics");
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace tepic::support
