#include "support/stats.hh"

#include <algorithm>

namespace tepic::support {

void
Histogram::clampToThreshold()
{
    if (!bounded_)
        return;
    auto it = bins_.lower_bound(threshold_);
    while (it != bins_.end()) {
        overflow_ += it->second;
        it = bins_.erase(it);
    }
}

void
Histogram::merge(const Histogram &other)
{
    if (&other == this) {
        // Merging a histogram with itself: double in place. The
        // generic path below would iterate other.bins_ while
        // mutating bins_ — same container — so handle it explicitly.
        for (auto &[k, w] : bins_)
            w *= 2;
        overflow_ *= 2;
        total_ *= 2;
        return;
    }
    if (other.bounded_ && (!bounded_ || other.threshold_ < threshold_)) {
        bounded_ = true;
        threshold_ = other.threshold_;
        clampToThreshold();
    }
    for (const auto &[k, w] : other.bins_) {
        if (bounded_ && k >= threshold_)
            overflow_ += w;
        else
            bins_[k] += w;
    }
    overflow_ += other.overflow_;
    total_ += other.total_;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / double(values.size());
}

} // namespace tepic::support
