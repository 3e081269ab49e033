/**
 * @file
 * Tests for the size-provenance subsystem: SizeLedger semantics
 * (charging, merging, export, treemap JSON), the tiling invariant on
 * every scheme the pipeline builds (leaf bits sum to the image size
 * exactly, ATT included), the per-function layout rollup, and the
 * determinism contract (jobs=1 and jobs=8 produce bit-identical
 * SIZE report JSON).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "asmgen/layout.hh"
#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "json_mini.hh"
#include "support/metrics.hh"
#include "support/size_ledger.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using support::SizeLedger;

TEST(SizeLedger, ChargesAccumulateAndZeroChargesDrop)
{
    SizeLedger ledger;
    EXPECT_TRUE(ledger.empty());
    ledger.addBits("code/payload", 10);
    ledger.addBits("code/payload", 5);
    ledger.addBits("code/overhead", 0);  // dropped, not a leaf
    ledger.addBits("align_pad", 3);
    EXPECT_EQ(ledger.totalBits(), 18u);
    EXPECT_EQ(ledger.leafBits("code/payload"), 15u);
    EXPECT_EQ(ledger.leafBits("code/overhead"), 0u);
    EXPECT_EQ(ledger.leaves().size(), 2u);
    ledger.assertTiles(18, "unit");
    ledger.clear();
    EXPECT_TRUE(ledger.empty());
}

TEST(SizeLedger, MergeIsAssociativeAndCommutative)
{
    auto make = [](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
        SizeLedger ledger;
        ledger.addBits("x/a", a);
        ledger.addBits("x/b", b);
        ledger.addBits("y", c);
        return ledger;
    };
    const auto l1 = make(1, 2, 3);
    const auto l2 = make(10, 0, 30);
    const auto l3 = make(100, 200, 0);

    SizeLedger ab = l1;
    ab.merge(l2);
    SizeLedger ab_c = ab;
    ab_c.merge(l3);

    SizeLedger bc = l2;
    bc.merge(l3);
    SizeLedger a_bc = l1;
    a_bc.merge(bc);

    SizeLedger ba = l2;
    ba.merge(l1);

    EXPECT_EQ(ab_c.leaves(), a_bc.leaves());
    EXPECT_EQ(ab.leaves(), ba.leaves());
    EXPECT_EQ(ab_c.totalBits(),
              l1.totalBits() + l2.totalBits() + l3.totalBits());
}

TEST(SizeLedger, ExportRendersCounterNamespace)
{
    SizeLedger ledger;
    ledger.addBits("code/payload", 40);
    ledger.addBits("align_pad", 2);
    support::MetricsRegistry metrics;
    ledger.exportTo(metrics, "size.huff-byte");
    EXPECT_EQ(metrics.counter("size.huff-byte.code.payload"), 40u);
    EXPECT_EQ(metrics.counter("size.huff-byte.align_pad"), 2u);
    EXPECT_EQ(metrics.counter("size.huff-byte.total_bits"), 42u);
}

TEST(SizeLedger, TreemapJsonNestsAndSumsToTotal)
{
    SizeLedger ledger;
    ledger.addBits("stream/s0_b0_w9/payload", 100);
    ledger.addBits("stream/s0_b0_w9/overhead", 7);
    ledger.addBits("stream/s1_b9_w10/payload", 50);
    ledger.addBits("align_pad", 5);

    support::JsonWriter json;
    ledger.writeJson(json);
    const auto doc = testjson::parse(json.take());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("align_pad").number, 5.0);
    const auto &s0 = doc.at("stream").at("s0_b0_w9");
    EXPECT_EQ(s0.at("payload").number, 100.0);
    EXPECT_EQ(s0.at("overhead").number, 7.0);
    EXPECT_EQ(doc.at("stream").at("s1_b9_w10").at("payload").number,
              50.0);
}

class SizeTiling : public ::testing::Test
{
  protected:
    static const core::Artifacts &
    artifacts()
    {
        static const core::Artifacts instance = [] {
            core::PipelineConfig config;
            return core::ArtifactEngine::buildUncached(
                workloads::workloadByName("fir").source,
                core::ArtifactRequest::all(), config);
        }();
        return instance;
    }
};

TEST_F(SizeTiling, EveryBuiltSchemeTilesExactly)
{
    const auto entries = core::collectSizeLedgers(artifacts());
    // base + byte + 6 streams + full + tailored + att.
    ASSERT_EQ(entries.size(), 11u);
    for (const auto &entry : entries) {
        SCOPED_TRACE(entry.scheme);
        ASSERT_NE(entry.ledger, nullptr);
        EXPECT_FALSE(entry.ledger->empty());
        EXPECT_EQ(entry.ledger->totalBits(), entry.totalBits);
        if (entry.image != nullptr) {
            EXPECT_EQ(entry.totalBits, entry.image->bitSize);
        }
    }
    // The sizes the fig05/fig07 gauges are computed from are these
    // same image.bitSize / Att::totalBits() values: tie them to the
    // checked accessors explicitly.
    const auto &a = artifacts();
    EXPECT_EQ(a.baseImage().ledger.totalBits(), a.baseImage().bitSize);
    EXPECT_EQ(a.fullImage().image.ledger.totalBits(),
              a.fullImage().image.bitSize);
    EXPECT_EQ(a.tailoredImage().ledger.totalBits(),
              a.tailoredImage().bitSize);
    EXPECT_EQ(a.att().ledger().totalBits(), a.att().totalBits());
}

TEST_F(SizeTiling, AttLedgerSplitsPerEntryMetadata)
{
    const auto &att = artifacts().att();
    const auto &leaves = att.ledger().leaves();
    ASSERT_EQ(leaves.size(), 4u);
    EXPECT_TRUE(leaves.count("entry/addr"));
    EXPECT_TRUE(leaves.count("entry/line_count"));
    EXPECT_TRUE(leaves.count("entry/mop_count"));
    EXPECT_TRUE(leaves.count("entry/next_pc"));
}

TEST_F(SizeTiling, MetricsExportMatchesLedgers)
{
    support::MetricsRegistry metrics;
    core::recordSizeMetrics(artifacts(), metrics);
    for (const auto &entry : core::collectSizeLedgers(artifacts())) {
        SCOPED_TRACE(entry.scheme);
        const std::string prefix = "size." + entry.scheme;
        EXPECT_EQ(metrics.counter(prefix + ".total_bits"),
                  entry.totalBits);
        // The exported leaves must themselves tile the exported
        // total: sum every counter under the prefix except
        // total_bits itself.
        std::uint64_t leaf_sum = 0;
        for (const auto &name : metrics.counterNames()) {
            if (name.rfind(prefix + ".", 0) == 0 &&
                name != prefix + ".total_bits")
                leaf_sum += metrics.counter(name);
        }
        EXPECT_EQ(leaf_sum, entry.totalBits);
    }
    // Codeword-length distributions ride along for every Huffman
    // alphabet (byte, six streams, full = 8 histograms).
    EXPECT_GT(metrics.histogram("size.huff-byte.codelen").total(), 0u);
    EXPECT_GT(metrics.histogram("size.huff-full.codelen").total(), 0u);
}

TEST_F(SizeTiling, LayoutRollupTilesEveryImage)
{
    const auto &a = artifacts();
    std::vector<std::string> function_names;
    for (const auto &fn : a.compiled.emitted.functions)
        function_names.push_back(fn.name);

    for (const auto &entry : core::collectSizeLedgers(a)) {
        if (entry.image == nullptr)
            continue;
        SCOPED_TRACE(entry.scheme);
        const auto rollup = asmgen::imageLayoutRollup(
            *entry.image, a.compiled.blockSource, function_names);
        EXPECT_EQ(rollup.totalBits(), entry.image->bitSize);
        EXPECT_GT(rollup.leafBits("func/main/b0"), 0u);
    }
}

TEST(SizeReport, JsonIsDeterministicAcrossJobs)
{
    const auto &fir = workloads::workloadByName("fir");
    const auto &matmul = workloads::workloadByName("matmul");
    const core::BuildRequest req_fir{fir.source,
                                     core::ArtifactRequest::all(), {}, {}};
    const core::BuildRequest req_matmul{
        matmul.source, core::ArtifactRequest::all(), {}, {}};

    auto report = [&](unsigned jobs) {
        core::ArtifactEngine engine(jobs);
        const auto built = engine.buildMany({req_fir, req_matmul});
        return core::sizeReportJson(
            "determinism",
            {{"fir", built[0].get()}, {"matmul", built[1].get()}});
    };
    const std::string serial = report(1);
    const std::string parallel = report(8);
    EXPECT_EQ(serial, parallel);  // bit-identical, not just equal size

    // And the report is well-formed tepic-size-v1 whose per-scheme
    // totals match the tree leaves.
    const auto doc = testjson::parse(serial);
    EXPECT_EQ(doc.at("schema").str, "tepic-size-v1");
    const auto &schemes =
        doc.at("workloads").at("fir").at("schemes").object;
    EXPECT_EQ(schemes.size(), 11u);
    for (const auto &[scheme, body] : schemes) {
        SCOPED_TRACE(scheme);
        std::function<double(const testjson::Value &)> sum =
            [&](const testjson::Value &node) {
                if (node.isNumber())
                    return node.number;
                double total = 0.0;
                for (const auto &[key, child] : node.object)
                    total += sum(child);
                return total;
            };
        EXPECT_EQ(sum(body.at("tree")),
                  body.at("total_bits").number);
        if (body.has("by_function")) {
            EXPECT_EQ(sum(body.at("by_function")),
                      body.at("total_bits").number);
        }
    }
}

} // namespace
