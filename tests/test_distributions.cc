/**
 * @file
 * Statistical tests for the variate distributions.
 */

#include <memory>

#include <gtest/gtest.h>

#include "sim/distributions.hh"
#include "stats/accumulator.hh"

namespace {

using namespace mediaworm::sim;
using mediaworm::stats::Accumulator;

Accumulator
sample(Distribution& dist, int n, std::uint64_t seed = 99)
{
    Rng rng(seed);
    Accumulator acc;
    for (int i = 0; i < n; ++i)
        acc.add(dist.sample(rng));
    return acc;
}

TEST(Distributions, ConstantAlwaysReturnsValue)
{
    ConstantDistribution dist(16666.0);
    EXPECT_DOUBLE_EQ(dist.mean(), 16666.0);
    const Accumulator acc = sample(dist, 100);
    EXPECT_DOUBLE_EQ(acc.min(), 16666.0);
    EXPECT_DOUBLE_EQ(acc.max(), 16666.0);
}

TEST(Distributions, NormalMatchesMoments)
{
    NormalDistribution dist(16666.0, 3333.0);
    EXPECT_DOUBLE_EQ(dist.mean(), 16666.0);
    EXPECT_DOUBLE_EQ(dist.stddev(), 3333.0);
    const Accumulator acc = sample(dist, 100000);
    EXPECT_NEAR(acc.mean(), 16666.0, 40.0);
    EXPECT_NEAR(acc.stddev(), 3333.0, 40.0);
}

TEST(Distributions, NormalIsSymmetric)
{
    NormalDistribution dist(0.0, 1.0);
    Rng rng(3);
    int above = 0;
    constexpr int kSamples = 50000;
    for (int i = 0; i < kSamples; ++i)
        above += dist.sample(rng) > 0.0;
    EXPECT_NEAR(static_cast<double>(above) / kSamples, 0.5, 0.01);
}

TEST(Distributions, NormalZeroStddevIsDegenerate)
{
    NormalDistribution dist(5.0, 0.0);
    const Accumulator acc = sample(dist, 100);
    EXPECT_DOUBLE_EQ(acc.min(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(Distributions, TruncatedNormalRespectsFloor)
{
    // Aggressive truncation: floor only one sigma below the mean.
    TruncatedNormalDistribution dist(100.0, 50.0, 50.0);
    const Accumulator acc = sample(dist, 50000);
    EXPECT_GE(acc.min(), 50.0);
    // Truncation shifts the mean up.
    EXPECT_GT(acc.mean(), 100.0);
}

TEST(Distributions, TruncatedNormalBarelyAffectsDistantFloor)
{
    // The paper's frame-size model: floor is 5 sigma below the mean.
    TruncatedNormalDistribution dist(16666.0, 3333.0, 76.0);
    const Accumulator acc = sample(dist, 50000);
    EXPECT_NEAR(acc.mean(), 16666.0, 60.0);
    EXPECT_NEAR(acc.stddev(), 3333.0, 60.0);
}

TEST(Distributions, SamplingIsDeterministicPerSeed)
{
    NormalDistribution a(10.0, 2.0);
    NormalDistribution b(10.0, 2.0);
    Rng ra(42);
    Rng rb(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.sample(ra), b.sample(rb));
}

TEST(Distributions, PolymorphicUseThroughBase)
{
    // FrameSource holds its frame-size model through the base class.
    std::unique_ptr<Distribution> dist =
        std::make_unique<TruncatedNormalDistribution>(10.0, 2.0, 4.0);
    EXPECT_DOUBLE_EQ(dist->mean(), 10.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_GE(dist->sample(rng), 4.0);
}

} // namespace
