/**
 * @file
 * The recorders' shared epoch clock: which of E epochs a trace
 * position falls in, for a trace of N expected events.
 *
 * epoch(pos) = min(E-1, pos·E/N) is the closed formula both the
 * CACHE heatmaps and the HOT phase matrix are defined by (0 when
 * N == 0). Positions reach a recorder in increasing order, so the
 * clock keeps the first position of the next epoch,
 * ceil((e+1)·N/E), and a fetch pays one compare instead of a 64-bit
 * division; thresholds are crossed in order (several at once when
 * N < E).
 */

#ifndef TEPIC_FETCH_EPOCH_CLOCK_HH
#define TEPIC_FETCH_EPOCH_CLOCK_HH

#include <cstdint>

namespace tepic::fetch {

class EpochClock
{
  public:
    EpochClock(unsigned epochs, std::uint64_t expectedEvents)
        : epochs_(epochs), expectedEvents_(expectedEvents)
    {
        advance(0);
    }

    /** The epoch of @p position; positions must not decrease. */
    unsigned
    at(std::uint64_t position)
    {
        if (position >= nextAt_)
            advance(position);
        return epoch_;
    }

  private:
    std::uint64_t epochs_;
    std::uint64_t expectedEvents_;
    unsigned epoch_ = 0;
    /** First position of epoch_ + 1 (never, in the last epoch). */
    std::uint64_t nextAt_ = ~std::uint64_t(0);

    void
    advance(std::uint64_t position)
    {
        if (expectedEvents_ != 0) {
            for (; epoch_ + 1 < epochs_; ++epoch_) {
                nextAt_ = ((epoch_ + 1) * expectedEvents_ + epochs_ - 1) /
                          epochs_;
                if (position < nextAt_)
                    return;
            }
        }
        nextAt_ = ~std::uint64_t(0);  // the last epoch never ends
    }
};

} // namespace tepic::fetch

#endif // TEPIC_FETCH_EPOCH_CLOCK_HH
