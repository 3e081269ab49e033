#include "huffman/huffman.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "support/logging.hh"

namespace tepic::huffman {

double
SymbolHistogram::entropyBits() const
{
    const double total = double(totalCount());
    if (total == 0.0)
        return 0.0;
    double h = 0.0;
    for (const auto &[sym, c] : counts_) {
        const double p = double(c) / total;
        h -= p * std::log2(p);
    }
    return h;
}

std::vector<unsigned>
packageMergeLengths(const std::vector<std::uint64_t> &freqs,
                    unsigned max_length)
{
    const std::size_t n = freqs.size();
    TEPIC_ASSERT(n > 0, "empty alphabet");
    if (n == 1)
        return {1};
    TEPIC_ASSERT((std::uint64_t(1) << max_length) >= n,
                 "max code length ", max_length, " too small for ", n,
                 " symbols");

    // Package-merge (Larmore & Hirschberg). Each level's list merges
    // the leaves, sorted by weight, with pairwise packages of the list
    // one level deeper; a leaf goes before an equal-weight package.
    // Level 1 selects its cheapest 2(n-1) items. A package covers two
    // items of the level below, so the selection at each level is a
    // prefix of that level's list, and its leaves are a prefix of the
    // sorted leaves. A symbol's length is the number of levels whose
    // selected prefix holds its leaf.
    struct Item
    {
        std::uint64_t weight;
        bool leaf;
    };
    const auto lighter = [](const Item &a, const Item &b) {
        return a.weight < b.weight;
    };

    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return freqs[a] < freqs[b];
              });
    std::vector<Item> leaves;
    leaves.reserve(n);
    for (auto sym : order)
        leaves.push_back({freqs[sym], true});

    // levels[L - 1] is level L's list, built from the deepest up.
    std::vector<std::vector<Item>> levels(max_length);
    std::vector<Item> packages;
    for (unsigned level = max_length; level >= 1; --level) {
        packages.clear();
        if (level < max_length) {
            const auto &deeper = levels[level];
            for (std::size_t i = 0; i + 1 < deeper.size(); i += 2)
                packages.push_back(
                    {deeper[i].weight + deeper[i + 1].weight, false});
        }
        auto &list = levels[level - 1];
        list.reserve(n + packages.size());
        std::merge(leaves.begin(), leaves.end(), packages.begin(),
                   packages.end(), std::back_inserter(list), lighter);
    }

    std::vector<unsigned> lengths(n, 0);
    std::size_t take = std::min(levels[0].size(), 2 * (n - 1));
    for (const auto &list : levels) {
        std::size_t selected_leaves = 0;
        for (std::size_t i = 0; i < take; ++i)
            selected_leaves += list[i].leaf;
        for (std::size_t rank = 0; rank < selected_leaves; ++rank)
            ++lengths[order[rank]];
        take = 2 * (take - selected_leaves);
    }

    for (auto len : lengths)
        TEPIC_ASSERT(len >= 1 && len <= max_length,
                     "package-merge produced bad length ", len);
    return lengths;
}

CodeTable
CodeTable::build(const SymbolHistogram &hist, unsigned max_length)
{
    TEPIC_ASSERT(hist.distinctSymbols() > 0,
                 "cannot build a code for an empty histogram");

    std::vector<std::uint64_t> symbols;
    std::vector<std::uint64_t> freqs;
    symbols.reserve(hist.distinctSymbols());
    for (const auto &[sym, count] : hist.counts()) {
        symbols.push_back(sym);
        freqs.push_back(count);
    }

    const auto lengths = packageMergeLengths(freqs, max_length);

    CodeTable table;
    table.entries_.reserve(symbols.size());
    for (std::size_t i = 0; i < symbols.size(); ++i)
        table.entries_.push_back({symbols[i], lengths[i], 0});

    // Canonical order: by (length, symbol value).
    std::sort(table.entries_.begin(), table.entries_.end(),
              [](const CodeEntry &a, const CodeEntry &b) {
                  if (a.length != b.length)
                      return a.length < b.length;
                  return a.symbol < b.symbol;
              });

    // Assign canonical codes.
    std::uint64_t code = 0;
    unsigned prev_len = table.entries_.front().length;
    for (auto &entry : table.entries_) {
        code <<= (entry.length - prev_len);
        entry.code = code;
        ++code;
        prev_len = entry.length;
        table.maxLength_ = std::max(table.maxLength_, entry.length);
    }

    // Kraft check: canonical assignment must not overflow.
    TEPIC_ASSERT((code - 1) <
                 (std::uint64_t(1) << table.maxLength_) ||
                 table.entries_.size() == 1,
                 "canonical code overflow (non-Kraft lengths)");

    for (std::size_t i = 0; i < table.entries_.size(); ++i)
        table.index_[table.entries_[i].symbol] = i;
    table.buildDecodeTables();
    return table;
}

void
CodeTable::buildDecodeTables()
{
    firstCode_.assign(maxLength_ + 1, 0);
    firstIndex_.assign(maxLength_ + 1, 0);
    countAt_.assign(maxLength_ + 1, 0);
    for (const auto &entry : entries_)
        ++countAt_[entry.length];
    std::size_t idx = 0;
    std::uint64_t code = 0;
    for (unsigned len = 1; len <= maxLength_; ++len) {
        code <<= 1;
        firstCode_[len] = code;
        firstIndex_[len] = idx;
        code += countAt_[len];
        idx += countAt_[len];
    }

    // First-level LUT: every code of length <= lutBits_ owns the
    // 2^(lutBits_ - length) slots sharing its prefix. Prefix-freedom
    // makes the owned ranges disjoint; slots nobody claims are
    // prefixes of longer codes and stay length == 0 (overflow).
    lutBits_ = std::min(maxLength_, kMaxLutBits);
    lut_.assign(std::size_t(1) << lutBits_, LutEntry{});
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const CodeEntry &entry = entries_[i];
        if (entry.length > lutBits_)
            continue;
        const unsigned pad = lutBits_ - entry.length;
        const std::size_t base = std::size_t(entry.code) << pad;
        const std::size_t span = std::size_t(1) << pad;
        for (std::size_t slot = 0; slot < span; ++slot)
            lut_[base + slot] =
                {std::uint32_t(i), std::uint8_t(entry.length)};
    }
}

unsigned
CodeTable::encode(std::uint64_t symbol,
                  support::BitWriter &writer) const
{
    auto it = index_.find(symbol);
    TEPIC_ASSERT(it != index_.end(),
                 "symbol not in code table: ", symbol);
    const CodeEntry &entry = entries_[it->second];
    writer.writeBits(entry.code, entry.length);
    return entry.length;
}

unsigned
CodeTable::codeLength(std::uint64_t symbol) const
{
    auto it = index_.find(symbol);
    TEPIC_ASSERT(it != index_.end(),
                 "symbol not in code table: ", symbol);
    return entries_[it->second].length;
}

std::uint64_t
CodeTable::decodeOverflow(support::BitReader &reader) const
{
    // The LUT said every code sharing the peeked lutBits_-bit prefix
    // is longer than lutBits_: consume the prefix and resume the
    // canonical walk from length lutBits_ + 1.
    std::uint64_t code = reader.readBits(lutBits_);
    for (unsigned len = lutBits_ + 1; len <= maxLength_; ++len) {
        code = (code << 1) | (reader.readBit() ? 1 : 0);
        if (countAt_[len] > 0 && code >= firstCode_[len] &&
            code < firstCode_[len] + countAt_[len]) {
            return entries_[firstIndex_[len] +
                            (code - firstCode_[len])].symbol;
        }
    }
    TEPIC_PANIC("corrupt bitstream: no code matched");
}

std::uint64_t
CodeTable::decodeReference(support::BitReader &reader) const
{
    std::uint64_t code = 0;
    for (unsigned len = 1; len <= maxLength_; ++len) {
        code = (code << 1) | (reader.readBit() ? 1 : 0);
        if (countAt_[len] > 0 && code >= firstCode_[len] &&
            code < firstCode_[len] + countAt_[len]) {
            return entries_[firstIndex_[len] +
                            (code - firstCode_[len])].symbol;
        }
    }
    TEPIC_PANIC("corrupt bitstream: no code matched");
}

std::uint64_t
CodeTable::encodedBits(const SymbolHistogram &hist) const
{
    std::uint64_t bits = 0;
    for (const auto &[sym, count] : hist.counts())
        bits += std::uint64_t(codeLength(sym)) * count;
    return bits;
}

support::Histogram
CodeTable::lengthHistogram() const
{
    support::Histogram hist;
    for (const auto &entry : entries_)
        hist.sample(std::int64_t(entry.length));
    return hist;
}

} // namespace tepic::huffman
