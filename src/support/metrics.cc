#include "support/metrics.hh"

#include "support/logging.hh"
#include "support/text_file.hh"

namespace tepic::support {

void
writeHistogram(JsonWriter &json, const Histogram &hist)
{
    json.object(JsonWriter::kInline);
    json.key("total").value(hist.total());
    json.key("overflow").value(hist.overflow());
    if (hist.bounded())
        json.key("overflow_threshold").value(hist.overflowThreshold());
    json.key("bins").array(JsonWriter::kInline);
    for (const auto &[key, weight] : hist.bins())
        json.array(JsonWriter::kInline).value(key).value(weight).end();
    json.end().end();
}

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
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
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

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter json;
    json.object().key("schema").value("tepic-metrics-v1");

    const auto section = [&json](const char *name, const auto &map,
                                 const auto &writeValue) {
        json.key(name).object();
        for (const auto &[key, value] : map) {
            json.key(key);
            writeValue(value);
        }
        json.end();
    };
    const auto scalar = [&json](const auto &value) { json.value(value); };

    section("counters", counters_, scalar);
    section("gauges", gauges_, scalar);
    section("histograms", histograms_, [&json](const Histogram &hist) {
        writeHistogram(json, hist);
    });
    return json.end().take();
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
