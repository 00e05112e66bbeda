/**
 * @file
 * Running mean of per-cycle samples. Event counts are plain u64
 * members of the structure that counts them.
 */

#ifndef CARF_COMMON_STATS_HH
#define CARF_COMMON_STATS_HH

#include "common/types.hh"

namespace carf::stats
{

/** Running mean of sampled values. */
class Average
{
  public:
    void sample(double v) { sum_ += v; ++count_; }
    /**
     * Record n identical samples of v in one shot. Bit-identical to n
     * sample(v) calls for integer-valued v (double addition of
     * integers below 2^53 is exact, so the running sum matches).
     */
    void sampleN(double v, u64 n) { sum_ += v * static_cast<double>(n); count_ += n; }
    void reset() { sum_ = 0.0; count_ = 0; }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    u64 count() const { return count_; }
    double sum() const { return sum_; }

  private:
    double sum_ = 0.0;
    u64 count_ = 0;
};

} // namespace carf::stats

#endif // CARF_COMMON_STATS_HH
