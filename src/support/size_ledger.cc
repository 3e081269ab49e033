#include "support/size_ledger.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace tepic::support {

void
SizeLedger::addBits(std::string_view path, std::uint64_t bits)
{
    if (bits == 0)
        return;
    TEPIC_ASSERT(!path.empty() && path.front() != '/' &&
                     path.back() != '/' &&
                     path.find("//") == std::string_view::npos,
                 "bad size-ledger path '", path, "'");

    // A path may not be both a leaf and an interior node: that would
    // make the treemap ambiguous (is the parent's number a leaf or
    // the sum of its children?).
    auto it = leaves_.lower_bound(path);
    if (it != leaves_.end() && it->first != path) {
        TEPIC_ASSERT(it->first.size() <= path.size() ||
                         it->first.compare(0, path.size(), path) != 0 ||
                         it->first[path.size()] != '/',
                     "size-ledger leaf '", path,
                     "' conflicts with deeper leaf '", it->first, "'");
    }
    const std::size_t slash = path.rfind('/');
    if (slash != std::string_view::npos) {
        for (std::size_t pos = path.find('/');
             pos != std::string_view::npos;
             pos = path.find('/', pos + 1)) {
            TEPIC_ASSERT(leaves_.find(path.substr(0, pos)) ==
                             leaves_.end(),
                         "size-ledger leaf '", path,
                         "' conflicts with shallower leaf '",
                         path.substr(0, pos), "'");
        }
    }
    leaves_[std::string(path)] += bits;
}

void
SizeLedger::merge(const SizeLedger &other)
{
    for (const auto &[path, bits] : other.leaves_)
        addBits(path, bits);
}

std::uint64_t
SizeLedger::totalBits() const
{
    std::uint64_t total = 0;
    for (const auto &[path, bits] : leaves_)
        total += bits;
    return total;
}

std::uint64_t
SizeLedger::leafBits(std::string_view path) const
{
    auto it = leaves_.find(path);
    return it == leaves_.end() ? 0 : it->second;
}

void
SizeLedger::assertTiles(std::uint64_t expected_bits,
                        std::string_view what) const
{
    TEPIC_ASSERT(totalBits() == expected_bits, "size ledger for ",
                 what, " does not tile: leaves sum to ", totalBits(),
                 " bits, artifact is ", expected_bits, " bits");
}

void
SizeLedger::exportTo(MetricsRegistry &out,
                     std::string_view prefix) const
{
    for (const auto &[path, bits] : leaves_) {
        TEPIC_ASSERT(path != "total_bits",
                     "size-ledger leaf 'total_bits' is reserved");
        std::string name(prefix);
        name += '.';
        name += path;
        for (auto &c : name)
            if (c == '/')
                c = '.';
        out.addCounter(name, bits);
    }
    std::string total(prefix);
    total += ".total_bits";
    out.addCounter(total, totalBits());
}

namespace {

struct FlatLeaf
{
    std::vector<std::string_view> segments;
    std::uint64_t bits;
};

void
writeRange(JsonWriter &json, const std::vector<FlatLeaf> &leaves,
           std::size_t begin, std::size_t end, std::size_t depth)
{
    json.object();
    std::size_t i = begin;
    while (i < end) {
        const std::string_view segment = leaves[i].segments[depth];
        std::size_t j = i;
        while (j < end && leaves[j].segments[depth] == segment)
            ++j;
        json.key(segment);
        if (j == i + 1 && leaves[i].segments.size() == depth + 1)
            json.value(leaves[i].bits);
        else
            writeRange(json, leaves, i, j, depth + 1);
        i = j;
    }
    json.end();
}

} // namespace

void
SizeLedger::writeJson(JsonWriter &json) const
{
    std::vector<FlatLeaf> flat;
    flat.reserve(leaves_.size());
    for (const auto &[path, bits] : leaves_) {
        FlatLeaf leaf;
        leaf.bits = bits;
        std::string_view rest = path;
        for (std::size_t pos = rest.find('/');
             pos != std::string_view::npos; pos = rest.find('/')) {
            leaf.segments.push_back(rest.substr(0, pos));
            rest = rest.substr(pos + 1);
        }
        leaf.segments.push_back(rest);
        flat.push_back(std::move(leaf));
    }
    // Sort segment-wise (not by the raw path string) so every subtree
    // is one contiguous range regardless of how '/' collates against
    // the segment characters.
    std::sort(flat.begin(), flat.end(),
              [](const FlatLeaf &a, const FlatLeaf &b) {
                  return a.segments < b.segments;
              });
    writeRange(json, flat, 0, flat.size(), 0);
}

} // namespace tepic::support
