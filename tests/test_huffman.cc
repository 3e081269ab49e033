/**
 * @file
 * Huffman engine tests: package-merge length-limited codes, canonical
 * assignment, prefix-freeness, round trips and entropy bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>

#include "core/artifact_engine.hh"
#include "huffman/huffman.hh"
#include "schemes/huffman_scheme.hh"
#include "schemes/stream_config.hh"
#include "support/bitstream.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

namespace {

using tepic::huffman::CodeTable;
using tepic::huffman::packageMergeLengths;
using tepic::huffman::SymbolHistogram;

/**
 * The textbook package-merge: every item carries the symbols it
 * covers, with multiplicity, and each selected occurrence adds one
 * bit to its symbol's length. The counting implementation must agree
 * with it length for length, ties included, because tie-breaking
 * decides which equal-frequency symbols get which codes.
 */
std::vector<unsigned>
referencePackageMergeLengths(const std::vector<std::uint64_t> &freqs,
                             unsigned max_length)
{
    const std::size_t n = freqs.size();
    if (n == 1)
        return {1};

    struct Item
    {
        std::uint64_t weight;
        std::vector<std::uint32_t> symbols;
    };
    const auto lighter = [](const Item &a, const Item &b) {
        return a.weight < b.weight;
    };
    const auto originals = [&] {
        std::vector<Item> items;
        for (std::uint32_t i = 0; i < n; ++i)
            items.push_back({freqs[i], {i}});
        std::sort(items.begin(), items.end(), lighter);
        return items;
    };

    std::vector<Item> prev;
    std::vector<unsigned> lengths(n, 0);
    for (unsigned level = max_length; level >= 1; --level) {
        std::vector<Item> merged = originals();
        std::vector<Item> packages;
        for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
            Item pack{prev[i].weight + prev[i + 1].weight,
                      prev[i].symbols};
            pack.symbols.insert(pack.symbols.end(),
                                prev[i + 1].symbols.begin(),
                                prev[i + 1].symbols.end());
            packages.push_back(std::move(pack));
        }
        std::vector<Item> level_items;
        std::merge(std::make_move_iterator(merged.begin()),
                   std::make_move_iterator(merged.end()),
                   std::make_move_iterator(packages.begin()),
                   std::make_move_iterator(packages.end()),
                   std::back_inserter(level_items), lighter);
        if (level == 1) {
            const std::size_t take =
                std::min(level_items.size(), 2 * (n - 1));
            for (std::size_t i = 0; i < take; ++i)
                for (auto sym : level_items[i].symbols)
                    ++lengths[sym];
        } else {
            prev = std::move(level_items);
        }
    }
    return lengths;
}

/** The smallest bound a code for @p n symbols can meet. */
unsigned
minBound(std::size_t n)
{
    unsigned bound = 1;
    while ((std::size_t(1) << bound) < n)
        ++bound;
    return bound;
}

TEST(PackageMerge, SingleSymbol)
{
    const auto lengths = packageMergeLengths({42}, 16);
    ASSERT_EQ(lengths.size(), 1u);
    EXPECT_EQ(lengths[0], 1u);
}

TEST(PackageMerge, TwoSymbols)
{
    const auto lengths = packageMergeLengths({1, 1000}, 16);
    EXPECT_EQ(lengths[0], 1u);
    EXPECT_EQ(lengths[1], 1u);
}

TEST(PackageMerge, ClassicExample)
{
    // Freqs 1,1,2,3,5 -> unbounded Huffman lengths 4,4,3,2,1 (or an
    // equivalent-cost assignment).
    const auto lengths = packageMergeLengths({1, 1, 2, 3, 5}, 16);
    std::uint64_t cost = 0;
    const std::uint64_t freqs[] = {1, 1, 2, 3, 5};
    for (std::size_t i = 0; i < 5; ++i)
        cost += freqs[i] * lengths[i];
    EXPECT_EQ(cost, 1 * 4 + 1 * 4 + 2 * 3 + 3 * 2 + 5 * 1);
}

TEST(PackageMerge, RespectsTheBound)
{
    // A Fibonacci-like distribution forces long unbounded codes.
    std::vector<std::uint64_t> freqs;
    std::uint64_t a = 1;
    std::uint64_t b = 1;
    for (int i = 0; i < 24; ++i) {
        freqs.push_back(a);
        const std::uint64_t next = a + b;
        a = b;
        b = next;
    }
    for (unsigned bound : {6u, 8u, 12u, 16u}) {
        const auto lengths = packageMergeLengths(freqs, bound);
        for (auto len : lengths) {
            EXPECT_GE(len, 1u);
            EXPECT_LE(len, bound);
        }
    }
}

TEST(PackageMerge, KraftInequalityHolds)
{
    tepic::support::Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint64_t> freqs;
        const int n = int(rng.range(2, 300));
        for (int i = 0; i < n; ++i)
            freqs.push_back(rng.below(10000) + 1);
        const auto lengths = packageMergeLengths(freqs, 16);
        double kraft = 0.0;
        for (auto len : lengths)
            kraft += std::ldexp(1.0, -int(len));
        EXPECT_LE(kraft, 1.0 + 1e-9);
    }
}

TEST(PackageMerge, TighterBoundNeverBeatsLooser)
{
    std::vector<std::uint64_t> freqs;
    tepic::support::Rng rng(17);
    for (int i = 0; i < 100; ++i)
        freqs.push_back(rng.below(5000) + 1);
    auto cost = [&](unsigned bound) {
        const auto lengths = packageMergeLengths(freqs, bound);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < freqs.size(); ++i)
            total += freqs[i] * lengths[i];
        return total;
    };
    EXPECT_GE(cost(7), cost(10));
    EXPECT_GE(cost(10), cost(16));
}

TEST(PackageMerge, MatchesTheSymbolVectorReference)
{
    // Few distinct weights make long runs of ties, the case where the
    // sort and merge order decide the lengths.
    tepic::support::Rng rng(21);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = 2 + rng.below(trial % 10 == 0 ? 2999 : 199);
        const std::uint64_t distinct = std::uint64_t(1)
            << rng.below(12);
        std::vector<std::uint64_t> freqs;
        for (std::size_t i = 0; i < n; ++i)
            freqs.push_back(rng.below(distinct) + 1);
        const unsigned lo = minBound(n);
        const unsigned bound = lo + unsigned(rng.below(17 - lo));
        ASSERT_EQ(packageMergeLengths(freqs, bound),
                  referencePackageMergeLengths(freqs, bound))
            << "trial " << trial << ": n=" << n << " bound=" << bound
            << " distinct weights <= " << distinct;
    }
}

TEST(PackageMerge, MatchesTheReferenceOnEverySuiteTable)
{
    // Rebuild the histogram behind every table the byte, stream and
    // full schemes build for the suite; the table's code lengths must
    // be the reference's for that histogram and bound.
    using namespace tepic;
    const schemes::HuffmanOptions options;
    core::ArtifactEngine engine(1);
    const auto check = [&](const SymbolHistogram &hist,
                           const CodeTable &table, unsigned bound,
                           const std::string &what) {
        std::vector<std::uint64_t> freqs;
        for (const auto &[sym, count] : hist.counts())
            freqs.push_back(count);
        const auto lengths = referencePackageMergeLengths(freqs, bound);
        EXPECT_EQ(packageMergeLengths(freqs, bound), lengths) << what;
        ASSERT_EQ(table.size(), hist.distinctSymbols()) << what;
        std::size_t i = 0;
        for (const auto &[sym, count] : hist.counts())
            ASSERT_EQ(table.codeLength(sym), lengths[i++]) << what;
    };
    const core::ArtifactRequest request{core::ArtifactKind::kByte,
                                        core::ArtifactKind::kStream,
                                        core::ArtifactKind::kFull};
    for (const auto &workload : workloads::allWorkloads()) {
        const auto built = engine.build(workload.source, request);
        const auto &configs = schemes::allStreamConfigs();
        SymbolHistogram bytes, full;
        std::vector<std::vector<SymbolHistogram>> by_config(
            configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c)
            by_config[c].resize(configs[c].widths.size());
        for (const auto &blk : built->compiled.program.blocks()) {
            for (const auto &mop : blk.mops) {
                for (const auto &op : mop.ops()) {
                    const std::uint64_t bits = op.encode();
                    full.add(bits);
                    for (int shift = 32; shift >= 0; shift -= 8)
                        bytes.add((bits >> shift) & 0xff);
                    for (std::size_t c = 0; c < configs.size(); ++c) {
                        unsigned at = isa::kOpBits;
                        for (std::size_t s = 0;
                             s < configs[c].widths.size(); ++s) {
                            const unsigned w = configs[c].widths[s];
                            at -= w;
                            by_config[c][s].add(
                                (bits >> at) &
                                ((std::uint64_t(1) << w) - 1));
                        }
                    }
                }
            }
        }
        check(bytes, built->byteImage().tables[0],
              schemes::kByteMaxCodeLength, workload.name + " byte");
        check(full, built->fullImage().tables[0], options.maxCodeLength,
              workload.name + " full");
        for (std::size_t c = 0; c < configs.size(); ++c) {
            for (std::size_t s = 0; s < by_config[c].size(); ++s) {
                check(by_config[c][s], built->streamImage(c).tables[s],
                      options.maxCodeLength,
                      workload.name + " " + configs[c].name + " s" +
                          std::to_string(s));
            }
        }
    }
}

TEST(CodeTable, CanonicalCodesArePrefixFree)
{
    SymbolHistogram hist;
    tepic::support::Rng rng(3);
    for (int i = 0; i < 200; ++i)
        hist.add(std::uint64_t(i), rng.below(1000) + 1);
    const CodeTable table = CodeTable::build(hist, 16);
    const auto &entries = table.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        for (std::size_t j = i + 1; j < entries.size(); ++j) {
            const auto &a = entries[i];
            const auto &b = entries[j];
            const unsigned min_len = std::min(a.length, b.length);
            EXPECT_NE(a.code >> (a.length - min_len),
                      b.code >> (b.length - min_len))
                << "codes for symbols " << a.symbol << " and "
                << b.symbol << " collide as prefixes";
        }
    }
}

TEST(CodeTable, EncodeDecodeRoundTrip)
{
    SymbolHistogram hist;
    hist.add(10, 100);
    hist.add(20, 30);
    hist.add(30, 1);
    const CodeTable table = CodeTable::build(hist, 8);

    tepic::support::BitWriter writer;
    const std::uint64_t message[] = {10, 30, 10, 20, 10, 10, 30};
    for (auto sym : message)
        table.encode(sym, writer);
    tepic::support::BitReader reader(writer.bytes().data(),
                                     writer.bitSize());
    for (auto sym : message)
        EXPECT_EQ(table.decode(reader), sym);
}

TEST(CodeTable, FrequentSymbolsGetShorterCodes)
{
    SymbolHistogram hist;
    hist.add(1, 1000000);
    hist.add(2, 10);
    hist.add(3, 10);
    hist.add(4, 1);
    const CodeTable table = CodeTable::build(hist, 16);
    EXPECT_LT(table.codeLength(1), table.codeLength(4));
    EXPECT_EQ(table.codeLength(1), 1u);
}

TEST(CodeTable, UnknownSymbolPanics)
{
    SymbolHistogram hist;
    hist.add(1, 1);
    hist.add(2, 1);
    const CodeTable table = CodeTable::build(hist, 8);
    tepic::support::BitWriter writer;
    EXPECT_ANY_THROW(table.encode(99, writer));
    EXPECT_ANY_THROW(table.codeLength(99));
}

TEST(CodeTable, EncodedBitsMatchesManualSum)
{
    SymbolHistogram hist;
    hist.add(7, 5);
    hist.add(8, 3);
    hist.add(9, 2);
    const CodeTable table = CodeTable::build(hist, 8);
    std::uint64_t manual = 0;
    manual += 5 * table.codeLength(7);
    manual += 3 * table.codeLength(8);
    manual += 2 * table.codeLength(9);
    EXPECT_EQ(table.encodedBits(hist), manual);
}

TEST(Histogram, Entropy)
{
    SymbolHistogram hist;
    hist.add(0, 1);
    hist.add(1, 1);
    EXPECT_NEAR(hist.entropyBits(), 1.0, 1e-12);
    SymbolHistogram skew;
    skew.add(0, 1);
    EXPECT_NEAR(skew.entropyBits(), 0.0, 1e-12);
}

/** Property: random histograms round-trip and sit near entropy. */
class HuffmanProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HuffmanProperty, RoundTripAndEntropyBound)
{
    tepic::support::Rng rng(std::uint64_t(GetParam()) * 104729 + 7);
    SymbolHistogram hist;
    const int n = int(rng.range(2, 400));
    for (int i = 0; i < n; ++i)
        hist.add(rng.next() & 0xffff, rng.below(5000) + 1);
    const CodeTable table = CodeTable::build(hist, 16);

    // Average code length within [H, H+1) for unbounded Huffman; the
    // 16-bit bound can add a little, so allow slack.
    const double total = double(hist.totalCount());
    const double avg = double(table.encodedBits(hist)) / total;
    EXPECT_GE(avg + 1e-9, hist.entropyBits());
    EXPECT_LE(avg, hist.entropyBits() + 1.5);

    // Encode a random message and decode it back.
    std::vector<std::uint64_t> symbols;
    for (const auto &[sym, count] : hist.counts())
        symbols.push_back(sym);
    tepic::support::BitWriter writer;
    std::vector<std::uint64_t> message;
    for (int i = 0; i < 1000; ++i) {
        const auto sym = symbols[rng.below(symbols.size())];
        message.push_back(sym);
        table.encode(sym, writer);
    }
    tepic::support::BitReader reader(writer.bytes().data(),
                                     writer.bitSize());
    for (auto sym : message)
        ASSERT_EQ(table.decode(reader), sym);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty,
                         ::testing::Range(0, 12));

} // namespace
