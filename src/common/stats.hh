/**
 * @file
 * Lightweight scalar statistics: running mean/min/max
 * accumulators used when summarizing per-benchmark results.
 */

#ifndef RAPID_COMMON_STATS_HH
#define RAPID_COMMON_STATS_HH

#include <algorithm>
#include <limits>

namespace rapid {

/** Accumulates samples and reports min / max / arithmetic mean. */
class SummaryStat
{
  public:
    void
    add(double sample)
    {
        ++count_;
        sum_ += sample;
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }

    size_t count() const { return count_; }
    double min() const { return min_; }
    double max() const { return max_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

  private:
    size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace rapid

#endif // RAPID_COMMON_STATS_HH
