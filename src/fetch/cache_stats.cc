#include "fetch/cache_stats.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/logging.hh"

namespace tepic::fetch {

// ---------------------------------------------------------------------------
// CacheStats: merge + invariants.

void
CacheStats::merge(const CacheStats &other)
{
    if (!other.recorded)
        return;
    if (!recorded) {
        *this = other;
        return;
    }
    TEPIC_ASSERT(sameShape(other),
                 "CacheStats::merge across cache geometries (the "
                 "session layer must key these apart)");
    fetches += other.fetches;
    l0Bypasses += other.l0Bypasses;
    atbHits += other.atbHits;
    atbMisses += other.atbMisses;
    accesses += other.accesses;
    hits += other.hits;
    misses += other.misses;
    compulsory += other.compulsory;
    capacity += other.capacity;
    conflict += other.conflict;
    lineFills += other.lineFills;
    lineEvictions += other.lineEvictions;
    deadOnFill += other.deadOnFill;
    residentAtEnd += other.residentAtEnd;
    evictionUseHistogram.merge(other.evictionUseHistogram);
    reuseCold += other.reuseCold;
    reuseMax = std::max(reuseMax, other.reuseMax);
    reuseLog2Histogram.merge(other.reuseLog2Histogram);

    auto add_vec = [](std::vector<std::uint64_t> &into,
                      const std::vector<std::uint64_t> &from) {
        TEPIC_ASSERT(into.size() == from.size(),
                     "CacheStats::merge with mismatched vectors");
        for (std::size_t i = 0; i < into.size(); ++i)
            into[i] += from[i];
    };
    add_vec(setAccesses, other.setAccesses);
    add_vec(setHits, other.setHits);
    add_vec(setFills, other.setFills);
    add_vec(setEvictions, other.setEvictions);
    add_vec(setDeadOnFill, other.setDeadOnFill);
    add_vec(heatAccesses, other.heatAccesses);
    add_vec(heatFills, other.heatFills);
    add_vec(heatEvictions, other.heatEvictions);
}

void
CacheStats::assertTiling() const
{
    if (!recorded)
        return;
    TEPIC_ASSERT(misses == compulsory + capacity + conflict,
                 "3C classes must tile L1 misses exactly: ", misses,
                 " != ", compulsory, " + ", capacity, " + ", conflict);
    TEPIC_ASSERT(accesses == hits + misses,
                 "L1 accesses must tile into hits + misses");
    TEPIC_ASSERT(fetches == accesses + l0Bypasses,
                 "fetches must tile into L1 accesses + L0 bypasses");
    TEPIC_ASSERT(atbHits + atbMisses == fetches,
                 "every fetch makes exactly one ATB access");
    TEPIC_ASSERT(lineFills >= lineEvictions,
                 "more evictions than fills");
    TEPIC_ASSERT(residentAtEnd == lineFills - lineEvictions,
                 "resident lines must be fills - evictions");
    TEPIC_ASSERT(deadOnFill <= lineEvictions,
                 "dead-on-fill lines are a subset of evictions");
    TEPIC_ASSERT(fetches == reuseCold + reuseLog2Histogram.total(),
                 "reuse histogram + cold must tile the fetches");
    TEPIC_ASSERT(evictionUseHistogram.total() == lineEvictions,
                 "every eviction samples the use histogram once");

    std::uint64_t fill_sum = 0, evict_sum = 0;
    for (std::size_t s = 0; s < setAccesses.size(); ++s) {
        TEPIC_ASSERT(setAccesses[s] == setHits[s] + setFills[s],
                     "per-set line accesses must tile into hits + "
                     "fills (set ", s, ")");
        fill_sum += setFills[s];
        evict_sum += setEvictions[s];
    }
    TEPIC_ASSERT(fill_sum == lineFills,
                 "per-set fills must sum to the fill total");
    TEPIC_ASSERT(evict_sum == lineEvictions,
                 "per-set evictions must sum to the eviction total");

    // Heatmap column sums reproduce the per-set vectors.
    auto check_heat = [&](const std::vector<std::uint64_t> &heat,
                          const std::vector<std::uint64_t> &per_set,
                          const char *what) {
        for (unsigned s = 0; s < sets; ++s) {
            std::uint64_t col = 0;
            for (unsigned e = 0; e < kHeatmapEpochs; ++e)
                col += heat[std::size_t(e) * sets + s];
            TEPIC_ASSERT(col == per_set[s],
                         "heatmap ", what, " column must sum to the "
                         "per-set total (set ", s, ")");
        }
    };
    check_heat(heatAccesses, setAccesses, "accesses");
    check_heat(heatFills, setFills, "fills");
    check_heat(heatEvictions, setEvictions, "evictions");
}

// ---------------------------------------------------------------------------
// ReuseDistanceTracker.

ReuseDistanceTracker::ReuseDistanceTracker(std::size_t expectedBlocks)
{
    const std::uint64_t want =
        std::max<std::uint64_t>(64, 4 * std::uint64_t(expectedBlocks));
    cap_ = std::uint32_t(std::bit_ceil(want));
    bits_.assign(cap_ / 64, 0);
    fenwick_.assign(bits_.size() + 1, 0);
}

void
ReuseDistanceTracker::add(std::uint32_t word, std::uint32_t delta)
{
    // Unsigned wrap-around: delta ~0u subtracts one.
    for (std::size_t i = std::size_t(word) + 1; i < fenwick_.size();
         i += i & (~i + 1))
        fenwick_[i] += delta;
}

std::uint64_t
ReuseDistanceTracker::prefixWords(std::uint32_t words) const
{
    std::uint64_t sum = 0;
    for (std::uint32_t i = words; i > 0; i -= i & (~i + 1))
        sum += fenwick_[i];
    return sum;
}

void
ReuseDistanceTracker::compact()
{
    // Renumber the live markers by rank order: distances only depend
    // on the *relative* order of last-access positions, so the
    // markers stay exact while the position space shrinks to O(live).
    // A marker's rank is the markers in the words before its own
    // (one popcount prefix scan, kept in fenwick_ until the rebuild)
    // plus the markers below it in its word — no sort.
    const std::size_t words = bits_.size();
    std::uint32_t before = 0;
    for (std::size_t w = 0; w < words; ++w) {
        fenwick_[w] = before;
        before += std::uint32_t(std::popcount(bits_[w]));
    }
    for (std::uint32_t &last : lastPos_) {
        if (last == 0)
            continue;
        const std::uint32_t p = last - 1;
        const std::uint64_t below = (std::uint64_t(1) << (p % 64)) - 1;
        last = fenwick_[p / 64] +
               std::uint32_t(std::popcount(bits_[p / 64] & below)) + 1;
    }

    if (std::uint64_t(live_) * 4 > cap_)
        cap_ = std::uint32_t(std::bit_ceil(
            std::max<std::uint64_t>(64, 4 * std::uint64_t(live_))));
    // The live markers become the low live_ bits; the word tree is
    // rebuilt bottom-up in O(words).
    bits_.assign(cap_ / 64, 0);
    std::fill_n(bits_.begin(), live_ / 64, ~std::uint64_t(0));
    if (live_ % 64 != 0)
        bits_[live_ / 64] = (std::uint64_t(1) << (live_ % 64)) - 1;
    fenwick_.assign(bits_.size() + 1, 0);
    for (std::size_t i = 1; i < fenwick_.size(); ++i) {
        fenwick_[i] += std::uint32_t(std::popcount(bits_[i - 1]));
        const std::size_t parent = i + (i & (~i + 1));
        if (parent < fenwick_.size())
            fenwick_[parent] += fenwick_[i];
    }
    next_ = live_;
    ++compactions_;
}

std::uint64_t
ReuseDistanceTracker::access(std::uint32_t block)
{
    if (block >= lastPos_.size())
        lastPos_.resize(std::size_t(block) + 1, 0);
    if (next_ == cap_)
        compact();

    const std::uint32_t tail = next_ / 64;  // the new marker's word
    std::uint64_t distance = kCold;
    if (const std::uint32_t last = lastPos_[block]; last != 0) {
        const std::uint32_t p = last - 1;
        const std::uint32_t word = p / 64;
        const std::uint64_t upto = ~std::uint64_t(0) >> (63 - p % 64);
        if (word == tail) {
            // No marker lies past the tail word, and the marker moves
            // within it: the word tree is unchanged.
            distance = std::uint64_t(std::popcount(bits_[word] & ~upto));
        } else {
            // Markers strictly after p = live markers - markers <= p.
            distance = live_ - prefixWords(word) -
                       std::uint64_t(std::popcount(bits_[word] & upto));
            add(word, ~std::uint32_t(0));
            add(tail, 1);
        }
        bits_[word] &= ~(std::uint64_t(1) << (p % 64));
    } else {
        add(tail, 1);
        ++live_;
    }
    bits_[tail] |= std::uint64_t(1) << (next_ % 64);
    lastPos_[block] = ++next_;
    return distance;
}

// ---------------------------------------------------------------------------
// The two recorder halves: CacheStatsRecorder, CacheStreamRecorder.

CacheStatsRecorder::CacheStatsRecorder(const CacheConfig &cache,
                                       std::uint64_t expectedEvents)
    : clock_(CacheStats::kHeatmapEpochs, expectedEvents)
{
    stats_.sets = cache.sets;
    stats_.ways = cache.ways;
    stats_.lineBytes = cache.lineBytes;
    cells_.assign(std::size_t(CacheStats::kHeatmapEpochs) * cache.sets,
                  LineCell{});
    row_ = cells_.data();
    evictionUses_.assign(CacheStats::kUseHistogramOverflow, 0);
}

void
CacheStatsRecorder::beginFetch(std::uint64_t index)
{
    ++stats_.fetches;
    // Its L1 line events' epoch, from its trace index (never wall clock).
    row_ = cells_.data() + std::size_t(clock_.at(index)) * stats_.sets;
}

void
CacheStatsRecorder::onLineHit(std::uint64_t, std::uint32_t set)
{
    ++row_[set].hits;
}

void
CacheStatsRecorder::onLineFill(std::uint64_t, std::uint32_t set)
{
    ++row_[set].fills;
}

void
CacheStatsRecorder::onLineEvict(std::uint64_t, std::uint32_t set,
                                std::uint64_t uses)
{
    if (uses == 0) {
        ++row_[set].deadEvictions;
        return;
    }
    ++row_[set].liveEvictions;
    if (uses < evictionUses_.size())
        ++evictionUses_[uses];
    else
        stats_.evictionUseHistogram.sample(std::int64_t(
            std::min<std::uint64_t>(uses, std::uint64_t(1) << 62)));
}

CacheStats
CacheStatsRecorder::finish()
{
    stats_.recorded = true;
    stats_.accesses = stats_.hits + stats_.misses;

    // Fold the (epoch, set) cells into the heatmaps, the per-set
    // vectors and the line totals.
    const std::size_t sets = stats_.sets;
    stats_.setAccesses.assign(sets, 0);
    stats_.setHits.assign(sets, 0);
    stats_.setFills.assign(sets, 0);
    stats_.setEvictions.assign(sets, 0);
    stats_.setDeadOnFill.assign(sets, 0);
    stats_.heatAccesses.assign(cells_.size(), 0);
    stats_.heatFills.assign(cells_.size(), 0);
    stats_.heatEvictions.assign(cells_.size(), 0);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const LineCell &cell = cells_[i];
        const std::size_t set = i % sets;
        const std::uint64_t evictions =
            cell.liveEvictions + cell.deadEvictions;
        stats_.heatAccesses[i] = cell.hits + cell.fills;
        stats_.heatFills[i] = cell.fills;
        stats_.heatEvictions[i] = evictions;
        stats_.setAccesses[set] += cell.hits + cell.fills;
        stats_.setHits[set] += cell.hits;
        stats_.setFills[set] += cell.fills;
        stats_.setEvictions[set] += evictions;
        stats_.setDeadOnFill[set] += cell.deadEvictions;
        stats_.lineFills += cell.fills;
        stats_.lineEvictions += evictions;
        stats_.deadOnFill += cell.deadEvictions;
    }

    evictionUses_[0] = stats_.deadOnFill;
    for (std::size_t uses = 0; uses < evictionUses_.size(); ++uses) {
        if (evictionUses_[uses] != 0) {
            stats_.evictionUseHistogram.sample(std::int64_t(uses),
                                               evictionUses_[uses]);
        }
    }
    stats_.residentAtEnd = stats_.lineFills - stats_.lineEvictions;
    TEPIC_ASSERT(stats_.residentAtEnd <=
                     std::uint64_t(stats_.sets) * stats_.ways,
                 "more resident lines than the cache holds");
    return std::move(stats_);
}

void
CacheStreamRecorder::onFetch(std::uint32_t block)
{
    const std::uint64_t distance = reuse_.access(block);
    if (distance == ReuseDistanceTracker::kCold) {
        ++reuseCold_;
    } else {
        reuseMax_ = std::max(reuseMax_, distance);
        // bit_width(0) == 0: distance 0 keeps its own key.
        ++reuseBins_[std::bit_width(distance)];
    }
}

void
CacheStreamRecorder::onL1Access(std::uint32_t first, std::uint32_t last,
                                bool hit)
{
    // Probe before touch (LruStack::access): a block's own earlier
    // lines must not satisfy its later ones.
    const std::uint32_t verdict = lru_.access(first, last);
    if (!hit)
        ++missClasses_[std::size_t(classifyMiss(verdict, 0))];
}

void
CacheStreamRecorder::finish(CacheStats &record) const
{
    record.reuseCold = reuseCold_;
    record.reuseMax = reuseMax_;
    for (std::size_t key = 0; key < reuseBins_.size(); ++key) {
        if (reuseBins_[key] != 0) {
            record.reuseLog2Histogram.sample(std::int64_t(key),
                                             reuseBins_[key]);
        }
    }
    record.compulsory = missClasses_[std::size_t(MissClass::kCompulsory)];
    record.capacity = missClasses_[std::size_t(MissClass::kCapacity)];
    record.conflict = missClasses_[std::size_t(MissClass::kConflict)];
}

// ---------------------------------------------------------------------------
// CACHE-report rendering (the store is report_store.hh).

namespace {

/** values[begin, begin + count) as one inline array. */
void
writeArray(support::JsonWriter &json,
           const std::vector<std::uint64_t> &values, std::size_t begin,
           std::size_t count)
{
    json.array(support::JsonWriter::kInline);
    for (std::size_t i = begin; i < begin + count; ++i)
        json.value(values[i]);
    json.end();
}

} // namespace

void
writeScheme(support::JsonWriter &json, const CacheStats &s)
{
    using support::JsonWriter;
    json.object();
    json.key("config").object(JsonWriter::kInline);
    json.key("sets").value(s.sets);
    json.key("ways").value(s.ways);
    json.key("line_bytes").value(s.lineBytes);
    json.key("heatmap_epochs").value(CacheStats::kHeatmapEpochs);
    json.end();
    json.key("blocks").object(JsonWriter::kInline);
    json.key("fetches").value(s.fetches);
    json.key("l0_bypasses").value(s.l0Bypasses);
    json.end();
    json.key("atb").object(JsonWriter::kInline);
    json.key("hits").value(s.atbHits);
    json.key("misses").value(s.atbMisses);
    json.end();
    json.key("l1").object(JsonWriter::kInline);
    json.key("accesses").value(s.accesses);
    json.key("hits").value(s.hits);
    json.key("misses").value(s.misses);
    json.key("miss_classes").object(JsonWriter::kInline);
    json.key("compulsory").value(s.compulsory);
    json.key("capacity").value(s.capacity);
    json.key("conflict").value(s.conflict);
    json.end().end();
    json.key("lines").object(JsonWriter::kInline);
    json.key("fills").value(s.lineFills);
    json.key("evictions").value(s.lineEvictions);
    json.key("dead_on_fill").value(s.deadOnFill);
    json.key("resident_at_end").value(s.residentAtEnd);
    json.key("eviction_use_hist");
    support::writeHistogram(json, s.evictionUseHistogram);
    json.end();
    json.key("reuse").object(JsonWriter::kInline);
    // Every fetch is one reuse sample.
    json.key("samples").value(s.fetches);
    json.key("cold").value(s.reuseCold);
    json.key("max").value(s.reuseMax);
    json.key("log2_hist");
    support::writeHistogram(json, s.reuseLog2Histogram);
    json.end();

    json.key("sets").object();
    for (const auto &[label, vec] :
         {std::make_pair("accesses", &s.setAccesses),
          std::make_pair("hits", &s.setHits),
          std::make_pair("fills", &s.setFills),
          std::make_pair("evictions", &s.setEvictions),
          std::make_pair("dead_on_fill", &s.setDeadOnFill)}) {
        json.key(label);
        writeArray(json, *vec, 0, vec->size());
    }
    json.end();

    json.key("heatmap").object();
    json.key("epochs").value(CacheStats::kHeatmapEpochs);
    for (const auto &[label, vec] :
         {std::make_pair("accesses", &s.heatAccesses),
          std::make_pair("fills", &s.heatFills),
          std::make_pair("evictions", &s.heatEvictions)}) {
        json.key(label).array();
        for (unsigned e = 0; e < CacheStats::kHeatmapEpochs; ++e)
            writeArray(json, *vec, std::size_t(e) * s.sets, s.sets);
        json.end();
    }
    json.end().end();
}

} // namespace tepic::fetch
