/**
 * @file
 * The one report lifecycle (core::reports): every kind lands as
 * <KIND>_<name>.json with its schema id, SIZE follows the artifact
 * list, the CACHE/HOT sessions end with endSessions(), and a failed
 * write is reported.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/artifact_engine.hh"
#include "core/reports.hh"
#include "fetch/cache_stats.hh"
#include "fetch/hot_stats.hh"
#include "json_mini.hh"
#include "support/metrics.hh"
#include "support/sched.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
namespace fs = std::filesystem;

/** A fresh, empty directory for one test's reports. */
fs::path
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir;
}

/** Every report kind: file prefix and schema. */
const std::pair<const char *, const char *> kKinds[] = {
    {"PROF", "tepic-prof-v1"},   {"SCHED", "tepic-sched-v1"},
    {"CACHE", "tepic-cache-v1"}, {"HOT", "tepic-hot-v1"},
    {"SIZE", "tepic-size-v1"}};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Reports, WritesOneFilePerKindWithItsSchema)
{
    const fs::path dir = freshDir("reports_all");
    core::ArtifactEngine engine(2);
    core::reports::startSessions(2);
    const auto built = engine.build(
        workloads::workloadByName("fir").source,
        core::ArtifactRequest{core::ArtifactKind::kBase,
                              core::ArtifactKind::kTrace},
        {}, "fir");
    core::runFetch(*built, fetch::SchemeClass::kBase, std::nullopt,
                   "fir");

    support::MetricsRegistry metrics;
    ASSERT_TRUE(core::reports::writeReports(
        dir.string(), "unit", {core::SizeReportEntry{"fir", built.get()}},
        metrics));
    core::reports::endSessions();

    for (const auto &[prefix, schema] : kKinds) {
        const fs::path path = dir / (std::string(prefix) + "_unit.json");
        ASSERT_TRUE(fs::exists(path)) << path;
        const auto doc = testjson::parse(readFile(path));
        EXPECT_EQ(doc.at("schema").str, schema) << path;
        EXPECT_EQ(doc.at("name").str, "unit") << path;
    }
    // The fetch run was recorded, and each kind's counters exported.
    const auto cache =
        testjson::parse(readFile(dir / "CACHE_unit.json"));
    EXPECT_TRUE(cache.at("structure").at("workloads").has("fir"));
    EXPECT_GT(metrics.counter("size.base.total_bits"), 0u);
    EXPECT_GT(metrics.counter("sched.tasks"), 0u);

    EXPECT_FALSE(fetch::cachestats::enabled());
    EXPECT_FALSE(fetch::hotstats::enabled());
    EXPECT_FALSE(support::sched::enabled());
}

TEST(Reports, NoArtifactsMeansNoSizeReport)
{
    // The microbench's call: sessions but no engine build.
    const fs::path dir = freshDir("reports_micro");
    core::reports::startSessions(0);
    support::MetricsRegistry metrics;
    ASSERT_TRUE(
        core::reports::writeReports(dir.string(), "micro", {}, metrics));
    core::reports::endSessions();
    for (const auto &[prefix, schema] : kKinds) {
        const bool expected = std::string(prefix) != "SIZE";
        EXPECT_EQ(fs::exists(dir / (std::string(prefix) + "_micro.json")),
                  expected)
            << prefix;
    }
}

TEST(Reports, EmptyDirExportsWithoutWriting)
{
    core::reports::startSessions(0);
    support::MetricsRegistry metrics;
    EXPECT_TRUE(core::reports::writeReports("", "none", {}, metrics));
    core::reports::endSessions();
    EXPECT_FALSE(fs::exists("PROF_none.json"));
    EXPECT_TRUE(metrics.hasCounterWithPrefix("sched."));
}

TEST(Reports, UnwritableDirFails)
{
    core::reports::startSessions(0);
    support::MetricsRegistry metrics;
    // /dev/full exists and is not a directory.
    EXPECT_FALSE(
        core::reports::writeReports("/dev/full", "x", {}, metrics));
    core::reports::endSessions();
}

} // namespace
