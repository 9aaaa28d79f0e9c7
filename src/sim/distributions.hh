/**
 * @file
 * Random variate distributions used by the traffic models.
 *
 * Implemented locally (rather than via <random>) so that every
 * platform produces bit-identical draws for a given seed.
 */

#ifndef MEDIAWORM_SIM_DISTRIBUTIONS_HH
#define MEDIAWORM_SIM_DISTRIBUTIONS_HH

#include "sim/random.hh"

namespace mediaworm::sim {

/** Interface for a real-valued random distribution. */
class Distribution
{
  public:
    virtual ~Distribution() = default;

    /** Draws the next variate using @p rng. */
    virtual double sample(Rng& rng) = 0;

    /** Analytic mean of the distribution. */
    virtual double mean() const = 0;
};

/** Degenerate distribution: always returns the same value. */
class ConstantDistribution final : public Distribution
{
  public:
    explicit ConstantDistribution(double value) : value_(value) {}

    double sample(Rng&) override { return value_; }
    double mean() const override { return value_; }

  private:
    double value_;
};

/**
 * Normal distribution via the Marsaglia polar method.
 *
 * Caches the spare variate, so draws come in deterministic pairs.
 */
class NormalDistribution final : public Distribution
{
  public:
    NormalDistribution(double mean, double stddev);

    double sample(Rng& rng) override;
    double mean() const override { return mean_; }

    /** Standard deviation parameter. */
    double stddev() const { return stddev_; }

  private:
    double mean_;
    double stddev_;
    double spare_ = 0.0;
    bool hasSpare_ = false;
};

/**
 * Normal distribution truncated below at @p floor.
 *
 * The paper draws MPEG-2 frame sizes from Normal(16666, 3333) bytes;
 * truncation keeps pathological negative sizes out of the tail
 * (5-sigma events) without visibly changing the mean.
 */
class TruncatedNormalDistribution final : public Distribution
{
  public:
    TruncatedNormalDistribution(double mean, double stddev, double floor);

    double sample(Rng& rng) override;
    double mean() const override { return normal_.mean(); }

  private:
    NormalDistribution normal_;
    double floor_;
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_DISTRIBUTIONS_HH
