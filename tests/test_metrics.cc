/**
 * @file
 * Tests for the metrics registry (support/metrics) and the Histogram
 * merge semantics it builds on: per-section recording, ordered-merge
 * determinism (associativity under any grouping), the bounded
 * overflow bucket, JSON export round-tripped through the mini
 * parser, and the logging severity filter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "json_mini.hh"
#include "support/json_writer.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/stats.hh"

namespace {

using tepic::support::Histogram;
using tepic::support::JsonWriter;
using tepic::support::LogLevel;
using tepic::support::MetricsRegistry;

TEST(Metrics, CountersAccumulate)
{
    MetricsRegistry m;
    m.addCounter("hits");
    m.addCounter("hits", 4);
    EXPECT_EQ(m.counter("hits"), 5u);
    EXPECT_EQ(m.counter("absent"), 0u);
}

TEST(Metrics, GaugesLastWriteWins)
{
    MetricsRegistry m;
    m.setGauge("ipc", 1.5);
    m.setGauge("ipc", 2.25);
    EXPECT_DOUBLE_EQ(m.gauge("ipc"), 2.25);
    EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);
}

/** Histograms accumulate; timings have no section to land in. */
TEST(Metrics, HistogramsAndTimings)
{
    MetricsRegistry m;
    m.sampleHistogram("stalls", 3, 2);
    m.sampleHistogram("stalls", 7);
    EXPECT_EQ(m.histogram("stalls").total(), 3u);
    EXPECT_EQ(m.histogram("absent").total(), 0u);

    const auto doc = tepic::testjson::parse(m.toJson());
    EXPECT_FALSE(doc.has("timings"));
    EXPECT_FALSE(doc.has("runtime"));
}

TEST(Metrics, CounterPrefixQueries)
{
    MetricsRegistry m;
    m.addCounter("fetch.base.cycles", 10);
    m.addCounter("engine.compiles", 1);
    EXPECT_TRUE(m.hasCounterWithPrefix("fetch."));
    EXPECT_TRUE(m.hasCounterWithPrefix("engine."));
    EXPECT_FALSE(m.hasCounterWithPrefix("pool."));
    // "fetch.z" sorts after every "fetch.*" key: the lower_bound
    // probe must not report a stale neighbour.
    EXPECT_FALSE(m.hasCounterWithPrefix("fetch.z"));

    const auto names = m.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "engine.compiles");  // sorted
    EXPECT_EQ(names[1], "fetch.base.cycles");
}

TEST(Metrics, MergeFoldsEverySection)
{
    MetricsRegistry a;
    a.addCounter("hits", 2);
    a.setGauge("ipc", 1.0);
    a.sampleHistogram("stalls", 1);

    MetricsRegistry b;
    b.addCounter("hits", 3);
    b.setGauge("ipc", 2.0);
    b.sampleHistogram("stalls", 1, 4);

    a.merge(b);
    EXPECT_EQ(a.counter("hits"), 5u);
    EXPECT_DOUBLE_EQ(a.gauge("ipc"), 2.0);  // last write: the merged-in
    EXPECT_EQ(a.histogram("stalls").total(), 5u);
}

/**
 * The ordered-reduction guarantee: merging per-task registries in any
 * grouping yields the same result — the exact property the parallel
 * engine relies on for deterministic --jobs output.
 */
TEST(Metrics, MergeAssociativity)
{
    const auto fill = [](MetricsRegistry &m, int salt) {
        m.addCounter("hits", std::uint64_t(salt));
        m.sampleHistogram("stalls", salt, 2);
        m.setGauge("ipc", double(salt));
    };

    // (a ⊕ b) ⊕ c
    MetricsRegistry left_a, left_b, left_c;
    fill(left_a, 1);
    fill(left_b, 2);
    fill(left_c, 3);
    left_a.merge(left_b);
    left_a.merge(left_c);

    // a ⊕ (b ⊕ c)
    MetricsRegistry right_a, right_b, right_c;
    fill(right_a, 1);
    fill(right_b, 2);
    fill(right_c, 3);
    right_b.merge(right_c);
    right_a.merge(right_b);

    EXPECT_EQ(left_a.toJson(), right_a.toJson());
}

TEST(Metrics, ClearAndEmpty)
{
    MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.addCounter("hits");
    EXPECT_FALSE(m.empty());
    m.clear();
    EXPECT_TRUE(m.empty());
}

TEST(Metrics, JsonRoundTrip)
{
    MetricsRegistry m;
    m.addCounter("engine.cache_hits", 12);
    m.setGauge("fetch.ipc.\"quoted\"", 0.5);  // exercises escaping
    m.sampleHistogram("stalls", 2, 3);

    const auto doc = tepic::testjson::parse(m.toJson());
    EXPECT_EQ(doc.at("schema").str, "tepic-metrics-v1");
    EXPECT_EQ(doc.at("counters").at("engine.cache_hits").number, 12.0);
    EXPECT_DOUBLE_EQ(
        doc.at("gauges").at("fetch.ipc.\"quoted\"").number, 0.5);

    const auto &hist = doc.at("histograms").at("stalls");
    EXPECT_EQ(hist.at("total").number, 3.0);
    ASSERT_EQ(hist.at("bins").array.size(), 1u);
    EXPECT_EQ(hist.at("bins").array[0].array[0].number, 2.0);
    EXPECT_EQ(hist.at("bins").array[0].array[1].number, 3.0);
}

TEST(Metrics, EmptyRegistryJsonHasAllSections)
{
    MetricsRegistry m;
    const auto doc = tepic::testjson::parse(m.toJson());
    // Exactly the schema id and the three deterministic sections.
    ASSERT_EQ(doc.object.size(), 4u);
    EXPECT_EQ(doc.at("schema").str, "tepic-metrics-v1");
    for (const char *section : {"counters", "gauges", "histograms"}) {
        ASSERT_TRUE(doc.has(section)) << section;
        EXPECT_TRUE(doc.at(section).object.empty()) << section;
    }
}

TEST(Metrics, WriteJsonFile)
{
    MetricsRegistry m;
    m.addCounter("hits", 7);
    const std::string path = "test_metrics_out.json";
    ASSERT_TRUE(m.writeJsonFile(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto doc = tepic::testjson::parse(buffer.str());
    EXPECT_EQ(doc.at("counters").at("hits").number, 7.0);
    std::remove(path.c_str());
}

// --- Histogram merge semantics (the registry's reduction primitive)

TEST(HistogramMerge, EmptyOperands)
{
    Histogram empty;
    Histogram filled;
    filled.sample(2, 3);

    Histogram into_filled = filled;
    into_filled.merge(empty);
    EXPECT_EQ(into_filled.total(), 3u);
    EXPECT_EQ(into_filled.bins().at(2), 3u);

    Histogram into_empty;
    into_empty.merge(filled);
    EXPECT_EQ(into_empty.total(), 3u);
    EXPECT_EQ(into_empty.bins().at(2), 3u);
}

TEST(HistogramMerge, OverflowBucket)
{
    Histogram h(4);  // keys >= 4 overflow
    h.sample(1);
    h.sample(3);
    h.sample(4, 2);
    h.sample(100);
    EXPECT_TRUE(h.bounded());
    EXPECT_EQ(h.overflowThreshold(), 4);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.bins().size(), 2u);  // only 1 and 3 materialized
}

TEST(HistogramMerge, MixedThresholdsTakeTighter)
{
    Histogram loose(10);
    loose.sample(7, 2);
    loose.sample(12);  // overflows at 10

    Histogram tight(5);
    tight.sample(3);
    tight.sample(8);  // overflows at 5

    loose.merge(tight);
    EXPECT_EQ(loose.overflowThreshold(), 5);
    // The 7s recorded under the loose bound are re-clamped.
    EXPECT_EQ(loose.overflow(), 4u);  // 7,7,12 + tight's 8
    EXPECT_EQ(loose.bins().at(3), 1u);
    EXPECT_EQ(loose.total(), 5u);
}

TEST(HistogramMerge, UnboundedAdoptsBound)
{
    Histogram unbounded;
    unbounded.sample(7);
    Histogram bounded(5);
    bounded.sample(1);

    unbounded.merge(bounded);
    EXPECT_TRUE(unbounded.bounded());
    EXPECT_EQ(unbounded.overflowThreshold(), 5);
    EXPECT_EQ(unbounded.overflow(), 1u);  // the 7 re-clamped
    EXPECT_EQ(unbounded.total(), 2u);
}

TEST(HistogramMerge, SelfMergeDoubles)
{
    Histogram h(4);
    h.sample(1, 2);
    h.sample(9);  // overflow
    h.merge(h);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bins().at(1), 4u);
}

TEST(HistogramMerge, AssociativeAcrossMixedBounds)
{
    const auto render = [](const Histogram &h) {
        std::string out = std::to_string(h.total()) + "/" +
                          std::to_string(h.overflow()) + "/" +
                          std::to_string(h.bounded() ?
                                         h.overflowThreshold() : -1);
        for (const auto &[k, w] : h.bins())
            out += ":" + std::to_string(k) + "=" + std::to_string(w);
        return out;
    };

    Histogram a;       // unbounded
    a.sample(2, 2);
    a.sample(11);
    Histogram b(10);
    b.sample(6);
    b.sample(15);
    Histogram c(5);
    c.sample(1);
    c.sample(7);

    Histogram left = a;   // (a ⊕ b) ⊕ c
    left.merge(b);
    left.merge(c);

    Histogram right_bc = b;  // a ⊕ (b ⊕ c)
    right_bc.merge(c);
    Histogram right = a;
    right.merge(right_bc);

    EXPECT_EQ(render(left), render(right));
    EXPECT_EQ(left.overflowThreshold(), 5);
}

// --- logging severity levels (satellite of the observability layer)

TEST(Logging, ParseLevels)
{
    EXPECT_EQ(tepic::support::parseLogLevel("debug"), LogLevel::kDebug);
    EXPECT_EQ(tepic::support::parseLogLevel("info"), LogLevel::kInfo);
    EXPECT_EQ(tepic::support::parseLogLevel("warn"), LogLevel::kWarn);
    EXPECT_EQ(tepic::support::parseLogLevel("error"), LogLevel::kError);
    EXPECT_EQ(tepic::support::parseLogLevel("none"), LogLevel::kNone);
    // Unknown (or unset) falls back to the info default.
    EXPECT_EQ(tepic::support::parseLogLevel("bogus"), LogLevel::kInfo);
    EXPECT_EQ(tepic::support::parseLogLevel(nullptr), LogLevel::kInfo);
}

TEST(Logging, ThresholdFiltering)
{
    // The threshold is parsed from $TEPIC_LOG once; whatever it is,
    // the ordering contract must hold.
    const LogLevel threshold = tepic::support::logThreshold();
    for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                           LogLevel::kWarn, LogLevel::kError}) {
        EXPECT_EQ(tepic::support::logEnabled(level),
                  int(level) >= int(threshold));
    }
}

TEST(Metrics, JsonQuoteEscapes)
{
    EXPECT_EQ(tepic::support::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(tepic::support::jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(tepic::support::jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(tepic::support::jsonQuote("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(tepic::support::jsonQuote(std::string("a\x01") + "b"),
              "\"a\\u0001b\"");
}

TEST(Metrics, JsonWriterLayout)
{
    // Block containers: one member per line, two spaces per level;
    // inline ones: members joined by ", "; empty ones: {} and [].
    JsonWriter json;
    json.object();
    json.key("name").value("a\"b");
    json.key("list").array();
    json.object(JsonWriter::kInline);
    json.key("x").value(1).key("y").value(nullptr);
    json.end();
    json.array(JsonWriter::kInline).value(true).value(false).end();
    json.end();
    json.key("nested").object().key("deep").object().end().end();
    json.key("none").array(JsonWriter::kInline).end();
    EXPECT_EQ(json.end().take(),
              "{\n"
              "  \"name\": \"a\\\"b\",\n"
              "  \"list\": [\n"
              "    {\"x\": 1, \"y\": null},\n"
              "    [true, false]\n"
              "  ],\n"
              "  \"nested\": {\n"
              "    \"deep\": {}\n"
              "  },\n"
              "  \"none\": []\n"
              "}\n");

    JsonWriter empty_object;
    EXPECT_EQ(empty_object.object().end().take(), "{}\n");
    JsonWriter empty_array;
    EXPECT_EQ(empty_array.array().end().take(), "[]\n");
}

TEST(Metrics, JsonWriterNumbers)
{
    JsonWriter json;
    json.array(JsonWriter::kInline);
    json.value(UINT64_MAX).value(std::int64_t(-42)).value(INT64_MIN);
    json.value(0.1).value(1e-07).value(123456789012345.0).value(0.5);
    json.value(unsigned(7)).value(short(-3));
    // Integers are exact; doubles are %.12g, so a 15-digit double
    // keeps 12 significant digits.
    EXPECT_EQ(json.end().take(),
              "[18446744073709551615, -42, -9223372036854775808, "
              "0.1, 1e-07, 1.23456789012e+14, 0.5, 7, -3]\n");
}

TEST(Metrics, JsonWriterMisusePanics)
{
    {
        JsonWriter json;
        json.object();
        EXPECT_THROW(json.value(1), std::logic_error);  // no key
    }
    {
        JsonWriter json;
        json.array();
        EXPECT_THROW(json.key("k"), std::logic_error);  // key in array
    }
    {
        JsonWriter json;
        json.object().key("k");
        EXPECT_THROW(json.key("again"), std::logic_error);
        EXPECT_THROW(json.end(), std::logic_error);  // dangling key
    }
    {
        JsonWriter json;
        json.array().end();
        EXPECT_THROW(json.end(), std::logic_error);  // unbalanced
    }
    {
        JsonWriter json;
        json.object().key("open").array();
        EXPECT_THROW(json.take(), std::logic_error);  // still open
    }
    {
        JsonWriter json;
        EXPECT_THROW(json.take(), std::logic_error);  // nothing written
        json.value(1);
        EXPECT_THROW(json.value(2), std::logic_error);  // second root
    }
}

} // namespace
