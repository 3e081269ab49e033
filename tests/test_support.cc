/**
 * @file
 * Unit tests for the support substrate: bit streams, statistics,
 * text tables, the checked file writer, the deterministic RNG and the
 * command-line layer.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/bitstream.hh"
#include "support/cli.hh"
#include "support/keys.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/text_file.hh"

namespace {

using tepic::support::BitReader;
using tepic::support::BitWriter;

// Key stability: these suffixes appear in committed report baselines
// (cache/hot session stores) and in sweep configuration keys — the
// exact spelling is a contract, not a formatting choice.
TEST(ShapeKeys, UntaggedGeometrySuffix)
{
    EXPECT_EQ(tepic::support::shapeSuffix({{"", 256}, {"", 2},
                                           {"", 32}}),
              "@256x2x32");
    EXPECT_EQ(tepic::support::shapeSuffix({{"", 64}, {"", 1},
                                           {"", 64}}),
              "@64x1x64");
}

TEST(ShapeKeys, TaggedShapeSuffix)
{
    EXPECT_EQ(tepic::support::shapeSuffix({{"B", 12}, {"E", 16}}),
              "@B12xE16");
    EXPECT_EQ(tepic::support::shapeSuffix({{"S", 128}, {"W", 4},
                                           {"L", 64}}),
              "@S128xW4xL64");
}

TEST(ShapeKeys, DegenerateDimensions)
{
    EXPECT_EQ(tepic::support::shapeSuffix({}), "@");
    EXPECT_EQ(tepic::support::shapeSuffix({{"N", 0}}), "@N0");
}

TEST(TextFile, WritesTheWholeText)
{
    const std::string path = ::testing::TempDir() + "text_file.txt";
    ASSERT_TRUE(tepic::support::writeTextFile(path, "one\ntwo\n", "test"));
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "one\ntwo\n");
}

TEST(TextFile, FullDeviceAndMissingDirectoryFail)
{
    // A small write to /dev/full is buffered and only fails when
    // fclose() flushes it: the writer must still report it.
    EXPECT_FALSE(tepic::support::writeTextFile("/dev/full", "x", "test"));
    EXPECT_FALSE(tepic::support::writeTextFile(
        "/nonexistent-dir/out.json", "x", "test"));
}

TEST(BitStream, SingleBits)
{
    BitWriter w;
    w.writeBit(true);
    w.writeBit(false);
    w.writeBit(true);
    EXPECT_EQ(w.bitSize(), 3u);
    EXPECT_EQ(w.byteSize(), 1u);
    EXPECT_EQ(w.bytes()[0], 0b10100000);

    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_TRUE(r.readBit());
    EXPECT_FALSE(r.readBit());
    EXPECT_TRUE(r.readBit());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitStream, MsbFirstFieldOrder)
{
    BitWriter w;
    w.writeBits(0b101, 3);
    w.writeBits(0xff, 8);
    w.writeBits(0, 5);
    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_EQ(r.readBits(3), 0b101u);
    EXPECT_EQ(r.readBits(8), 0xffu);
    EXPECT_EQ(r.readBits(5), 0u);
}

TEST(BitStream, ByteAlignment)
{
    BitWriter w;
    w.writeBits(1, 1);
    w.alignToByte();
    EXPECT_EQ(w.bitSize(), 8u);
    w.writeBits(0xab, 8);
    EXPECT_EQ(w.bytes()[1], 0xab);
    w.alignToByte();
    EXPECT_EQ(w.bitSize(), 16u);  // already aligned: no-op
}

TEST(BitStream, SeekAndReread)
{
    BitWriter w;
    w.writeBits(0x1234, 16);
    w.writeBits(0x5678, 16);
    BitReader r(w.bytes().data(), w.bitSize());
    r.seek(16);
    EXPECT_EQ(r.readBits(16), 0x5678u);
    r.seek(0);
    EXPECT_EQ(r.readBits(16), 0x1234u);
}

TEST(BitStream, SixtyFourBitValues)
{
    BitWriter w;
    const std::uint64_t value = 0xdeadbeefcafebabeull;
    w.writeBits(value, 64);
    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_EQ(r.readBits(64), value);
}

TEST(BitStream, OverrunPanics)
{
    BitWriter w;
    w.writeBits(3, 2);
    BitReader r(w.bytes().data(), w.bitSize());
    r.readBits(2);
    EXPECT_ANY_THROW(r.readBits(1));
}

TEST(BitStream, ValueWiderThanFieldPanics)
{
    BitWriter w;
    EXPECT_ANY_THROW(w.writeBits(4, 2));
    w.writeBits(5, 3);  // an open byte: the check still fires
    EXPECT_ANY_THROW(w.writeBits(std::uint64_t(1) << 40, 40));
    EXPECT_ANY_THROW(w.writeBits(0, 65));
    EXPECT_EQ(w.bitSize(), 3u);
}

/**
 * Property: the byte-chunked writer lays down exactly the bits of a
 * bit-serial reference, for any mix of widths 0..64 and alignments.
 */
TEST(BitStream, MatchesABitSerialWriter)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        tepic::support::Rng rng(seed);
        BitWriter w;
        std::vector<bool> bits;  // the reference stream
        for (int i = 0; i < 400; ++i) {
            if (rng.chance(0.1)) {
                w.alignToByte();
                while (bits.size() % 8 != 0)
                    bits.push_back(false);
                continue;
            }
            const unsigned width = unsigned(rng.below(65));
            const std::uint64_t value = width == 64 ? rng.next()
                : rng.next() & ((std::uint64_t(1) << width) - 1);
            w.writeBits(value, width);
            for (unsigned b = width; b-- > 0;)
                bits.push_back((value >> b) & 1);
        }
        ASSERT_EQ(w.bitSize(), bits.size()) << "seed " << seed;
        ASSERT_EQ(w.byteSize(), (bits.size() + 7) / 8);
        std::vector<std::uint8_t> expected(w.byteSize(), 0);
        for (std::size_t i = 0; i < bits.size(); ++i)
            if (bits[i])
                expected[i / 8] |= std::uint8_t(0x80u >> (i % 8));
        // The final byte's unwritten low bits are zero padding.
        ASSERT_EQ(w.bytes(), expected) << "seed " << seed;
    }
}

/** Property: any sequence of (value,width) fields round-trips. */
class BitStreamRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(BitStreamRoundTrip, RandomFields)
{
    tepic::support::Rng rng(std::uint64_t(GetParam()) * 7919 + 1);
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    for (int i = 0; i < 500; ++i) {
        const unsigned width = unsigned(rng.range(1, 64));
        const std::uint64_t value = width == 64
            ? rng.next()
            : rng.next() & ((std::uint64_t(1) << width) - 1);
        fields.emplace_back(value, width);
        w.writeBits(value, width);
    }
    BitReader r(w.bytes().data(), w.bitSize());
    for (const auto &[value, width] : fields)
        EXPECT_EQ(r.readBits(width), value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStreamRoundTrip,
                         ::testing::Range(0, 8));

TEST(Stats, Histogram)
{
    tepic::support::Histogram h;
    h.sample(1, 2);
    h.sample(3, 2);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bins().size(), 2u);
}

TEST(Stats, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(tepic::support::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(tepic::support::median({4.0, 1.0, 2.0, 3.0}),
                     2.5);
    EXPECT_DOUBLE_EQ(tepic::support::median({}), 0.0);
}

TEST(Rng, DeterministicAndBounded)
{
    tepic::support::Rng a(42);
    tepic::support::Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
    tepic::support::Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = c.below(10);
        EXPECT_LT(v, 10u);
        const auto r = c.range(-5, 5);
        EXPECT_GE(r, -5);
        EXPECT_LE(r, 5);
    }
    EXPECT_FALSE(c.chance(0.0));
    EXPECT_TRUE(c.chance(1.0));
}

TEST(TextTable, RendersAligned)
{
    tepic::support::TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2     |"), std::string::npos);
}

TEST(TextTable, Formatting)
{
    EXPECT_EQ(tepic::support::TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(tepic::support::TextTable::percent(0.643, 1), "64.3%");
}

TEST(TextTable, RowArityChecked)
{
    tepic::support::TextTable t;
    t.setHeader({"a", "b"});
    EXPECT_ANY_THROW(t.addRow({"only-one"}));
}

namespace cli = tepic::support::cli;

/** parse() over @p args (argv[0] is added), as strings. */
std::vector<std::string>
parseArgs(std::vector<std::string> args, std::span<const cli::Flag> flags)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    std::vector<std::string> rest;
    for (const char *arg :
         cli::parse(int(argv.size()), argv.data(), flags))
        rest.emplace_back(arg);
    return rest;
}

TEST(Cli, ParseMatchesDeclaredFlags)
{
    bool off = false;
    std::vector<std::string> values;
    const cli::Flag flags[] = {
        {"--no-x", [&](const std::string &) { off = true; }},
        {"--val=", [&](const std::string &v) { values.push_back(v); }},
    };
    EXPECT_EQ(parseArgs({"--val=a,b", "pos", "--no-x", "-", "--val="},
                        flags),
              (std::vector<std::string>{"pos", "-"}));
    EXPECT_TRUE(off);
    EXPECT_EQ(values, (std::vector<std::string>{"a,b", ""}));
    // A valueless flag matches exactly; anything flag-like left over
    // is rejected by name.
    EXPECT_THROW(parseArgs({"--no-xy"}, flags), cli::UsageError);
    EXPECT_THROW(parseArgs({"--val"}, flags), cli::UsageError);
    EXPECT_THROW(parseArgs({"-v"}, flags), cli::UsageError);
    EXPECT_THROW(parseArgs({"--log-level=loud"}, flags), cli::UsageError);
    EXPECT_TRUE(parseArgs({"--log-level=info"}, flags).empty());
}

TEST(Cli, JobsAreDigitsUpToTheCeiling)
{
    unsigned jobs = 7;
    const cli::Flag flags[] = {cli::jobs(jobs)};
    parseArgs({"--jobs=0"}, flags);
    EXPECT_EQ(jobs, 0u);
    parseArgs({"--jobs=1024"}, flags);
    EXPECT_EQ(jobs, cli::kMaxJobs);
    for (const char *bad : {"", "abc", "-1", "+4", " 4", "4 ", "4x",
                            "1025", "4294967295", "4294967296",
                            "99999999999999999999"}) {
        EXPECT_THROW(parseArgs({std::string("--jobs=") + bad}, flags),
                     cli::UsageError)
            << bad;
    }
}

TEST(Cli, ListsSplitOnCommasAndDropEmptyItems)
{
    EXPECT_EQ(cli::splitCsv(",a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(cli::splitCsv("").empty());
    std::vector<unsigned> sets;
    const cli::Flag flags[] = {cli::positiveList("--sets=", sets)};
    parseArgs({"--sets=1", "--sets=128,,65536"}, flags);
    EXPECT_EQ(sets, (std::vector<unsigned>{128, cli::kMaxTableSize}));
    for (const char *bad : {"", ",", "0", "1,x", "-1", "65537",
                            "4294967296"}) {
        EXPECT_THROW(parseArgs({std::string("--sets=") + bad}, flags),
                     cli::UsageError)
            << bad;
    }
    const cli::Choices<int> choices{{"one", 1}, {"two", 2}};
    EXPECT_EQ(cli::choiceList("--n", "two,one", choices),
              (std::vector<int>{2, 1}));
    EXPECT_THROW(cli::choiceList("--n", ",", choices), cli::UsageError);
    try {
        cli::choice("--n", "three", choices);
        ADD_FAILURE() << "no throw";
    } catch (const cli::UsageError &error) {
        EXPECT_STREQ(error.what(),
                     "unknown --n value 'three' (expected one|two)");
    }
}

TEST(CliDeathTest, CheckedExitsTwoWithOneDiagnostic)
{
    bool ran = false;
    cli::checked("prog", "usage\n", [&] { ran = true; });
    EXPECT_TRUE(ran);
    EXPECT_EXIT(cli::checked("prog", "usage\n",
                             [] { throw cli::UsageError("bad"); }),
                testing::ExitedWithCode(2), "^prog: bad\nusage\n$");
    // A library lookup's FatalError is a usage error too, printed as
    // its bare message.
    EXPECT_EXIT(cli::checked("prog", "usage\n",
                             [] { TEPIC_FATAL("unknown thing 'x'"); }),
                testing::ExitedWithCode(2),
                "^prog: unknown thing 'x'\nusage\n$");
}

} // namespace
