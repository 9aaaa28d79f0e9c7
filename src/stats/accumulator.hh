/**
 * @file
 * Running scalar statistics (Welford's online algorithm).
 */

#ifndef MEDIAWORM_STATS_ACCUMULATOR_HH
#define MEDIAWORM_STATS_ACCUMULATOR_HH

#include <cstdint>
#include <limits>

namespace mediaworm::stats {

/**
 * Accumulates count/mean/variance/min/max of a sample stream in O(1)
 * memory, numerically stable for millions of samples.
 */
class Accumulator
{
  public:
    Accumulator() = default;

    /** Adds one sample. */
    void add(double x);

    /** Merges another accumulator into this one (parallel Welford). */
    void merge(const Accumulator& other);

    /** Discards all samples. */
    void reset();

    /** Number of samples added. */
    std::uint64_t count() const { return count_; }

    /** True if no samples were added. */
    bool empty() const { return count_ == 0; }

    /** Sample mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divide by n); 0 for n < 1. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Smallest sample; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample; -inf when empty. */
    double max() const { return max_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace mediaworm::stats

#endif // MEDIAWORM_STATS_ACCUMULATOR_HH
