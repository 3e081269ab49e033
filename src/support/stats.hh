/**
 * @file
 * Lightweight statistics accumulators used by the simulators.
 */

#ifndef TEPIC_SUPPORT_STATS_HH
#define TEPIC_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tepic::support {

/**
 * Integer-keyed histogram, optionally bounded: with an overflow
 * threshold T, samples with key >= T land in a single overflow bucket
 * instead of growing the bin map without limit (hot simulators sample
 * per block — a pathological stall tail must not allocate per key).
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Bounded histogram: keys >= @p overflowThreshold overflow. */
    explicit Histogram(std::int64_t overflowThreshold)
        : threshold_(overflowThreshold), bounded_(true)
    {
    }

    void sample(std::int64_t key, std::uint64_t weight = 1)
    {
        if (bounded_ && key >= threshold_)
            overflow_ += weight;
        else
            bins_[key] += weight;
        total_ += weight;
    }

    /**
     * Fold @p other in. Parallel code keeps one histogram per task
     * and merges in a fixed order on the calling thread —
     * deterministic, and no locking on the sample path. Mixed bounds take the *tighter* (minimum)
     * threshold and re-clamp, which keeps merge associative: any
     * grouping of the same operands yields the same bins, overflow
     * and threshold. Self-merge doubles every bucket, as if merging
     * an identical copy.
     */
    void merge(const Histogram &other);

    std::uint64_t total() const { return total_; }

    /** Weight that landed at or above the overflow threshold. */
    std::uint64_t overflow() const { return overflow_; }

    bool bounded() const { return bounded_; }

    /** Meaningful only when bounded(). */
    std::int64_t overflowThreshold() const { return threshold_; }

    const std::map<std::int64_t, std::uint64_t> &bins() const
    {
        return bins_;
    }

  private:
    /** Move bins at/above the current threshold into overflow. */
    void clampToThreshold();

    std::map<std::int64_t, std::uint64_t> bins_;
    std::uint64_t total_ = 0;
    std::uint64_t overflow_ = 0;
    std::int64_t threshold_ = 0;
    bool bounded_ = false;
};

/** Median of a sample vector (used for the paper's "median advantage"). */
double median(std::vector<double> values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

} // namespace tepic::support

#endif // TEPIC_SUPPORT_STATS_HH
