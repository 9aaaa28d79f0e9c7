/**
 * @file
 * Unit tests for the statistics toolkit: accumulator, histogram,
 * time-weighted average, rate monitor, interval tracker, registry.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/interval_tracker.hh"
#include "stats/registry.hh"

namespace {

using namespace mediaworm::stats;
using namespace mediaworm::sim;

// --- Accumulator -----------------------------------------------------------

TEST(Accumulator, EmptyDefaults)
{
    Accumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, KnownMoments)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator acc;
    acc.add(3.5);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, ResetClearsEverything)
{
    Accumulator acc;
    acc.add(1.0);
    acc.add(2.0);
    acc.reset();
    EXPECT_TRUE(acc.empty());
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(Accumulator, MergeEqualsCombinedStream)
{
    Rng rng(17);
    Accumulator combined;
    Accumulator left;
    Accumulator right;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-5.0, 13.0);
        combined.add(x);
        (i % 3 == 0 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), combined.count());
    EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), combined.min());
    EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(Accumulator, MergeWithEmptySides)
{
    Accumulator a;
    Accumulator b;
    a.add(2.0);
    a.merge(b); // empty rhs
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // empty lhs
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Accumulator, NumericallyStableForLargeOffsets)
{
    // Naive sum-of-squares would lose all precision here.
    Accumulator acc;
    const double offset = 1e12;
    for (double x : {offset + 1, offset + 2, offset + 3})
        acc.add(x);
    EXPECT_NEAR(acc.variance(), 2.0 / 3.0, 1e-6);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketsAndEdges)
{
    Histogram hist(0.0, 10.0, 5);
    EXPECT_EQ(hist.buckets(), 5u);
    EXPECT_DOUBLE_EQ(hist.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(hist.bucketLow(4), 8.0);
    hist.add(0.5);
    hist.add(1.9);
    hist.add(2.0);
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
}

TEST(Histogram, UnderAndOverflow)
{
    Histogram hist(0.0, 10.0, 5);
    hist.add(-1.0);
    hist.add(10.0); // hi edge is exclusive
    hist.add(99.0);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 2u);
    EXPECT_EQ(hist.count(), 3u);
}

TEST(Histogram, QuantilesOfUniformData)
{
    Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        hist.add(i + 0.5);
    EXPECT_NEAR(hist.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(hist.quantile(0.9), 90.0, 1.5);
    // q=0 interpolates to the low edge of the first occupied bucket.
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
}

TEST(Histogram, QuantileOnEmpty)
{
    Histogram hist(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
}

TEST(Histogram, ResetClears)
{
    Histogram hist(0.0, 1.0, 4);
    hist.add(0.5);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.bucketCount(2), 0u);
}

TEST(Histogram, ToStringMentionsStats)
{
    Histogram hist(0.0, 10.0, 5);
    hist.add(5.0);
    const std::string text = hist.toString();
    EXPECT_NE(text.find("n=1"), std::string::npos);
}

// --- IntervalTracker --------------------------------------------------------------

TEST(IntervalTracker, MeasuresSuccessiveDeliveries)
{
    IntervalTracker tracker;
    tracker.enable();
    const StreamId s(1);
    tracker.recordDelivery(s, milliseconds(0));
    tracker.recordDelivery(s, milliseconds(33));
    tracker.recordDelivery(s, milliseconds(66));
    EXPECT_EQ(tracker.sampleCount(), 2u);
    EXPECT_DOUBLE_EQ(tracker.meanIntervalMs(), 33.0);
    EXPECT_DOUBLE_EQ(tracker.stddevIntervalMs(), 0.0);
}

TEST(IntervalTracker, JitterShowsInStddev)
{
    IntervalTracker tracker;
    tracker.enable();
    const StreamId s(1);
    tracker.recordDelivery(s, milliseconds(0));
    tracker.recordDelivery(s, milliseconds(30));
    tracker.recordDelivery(s, milliseconds(66));
    EXPECT_DOUBLE_EQ(tracker.meanIntervalMs(), 33.0);
    EXPECT_DOUBLE_EQ(tracker.stddevIntervalMs(), 3.0);
}

TEST(IntervalTracker, WarmupDeliveriesSetBaselineOnly)
{
    IntervalTracker tracker;
    const StreamId s(1);
    tracker.recordDelivery(s, milliseconds(0));  // disabled
    tracker.recordDelivery(s, milliseconds(40)); // disabled
    tracker.enable();
    tracker.recordDelivery(s, milliseconds(73));
    EXPECT_EQ(tracker.sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(tracker.meanIntervalMs(), 33.0);
    EXPECT_EQ(tracker.framesDelivered(), 3u);
}

TEST(IntervalTracker, StreamsAreIndependent)
{
    IntervalTracker tracker;
    tracker.enable();
    tracker.recordDelivery(StreamId(1), milliseconds(0));
    tracker.recordDelivery(StreamId(2), milliseconds(10));
    tracker.recordDelivery(StreamId(1), milliseconds(33));
    tracker.recordDelivery(StreamId(2), milliseconds(43));
    EXPECT_EQ(tracker.sampleCount(), 2u);
    EXPECT_DOUBLE_EQ(tracker.meanIntervalMs(), 33.0);
}

// --- Registry -------------------------------------------------------------------

TEST(Registry, EntriesEvaluateLazilyInOrder)
{
    Registry registry;
    double value = 1.5;
    registry.add("router0.flits", [&] { return value; });
    registry.add("router0.waits", [] { return 7.0; });
    ASSERT_EQ(registry.entries().size(), 2u);
    EXPECT_EQ(registry.entries()[0].name, "router0.flits");
    EXPECT_EQ(registry.entries()[1].name, "router0.waits");
    EXPECT_DOUBLE_EQ(registry.entries()[0].value(), 1.5);
    value = 2.5;
    EXPECT_DOUBLE_EQ(registry.entries()[0].value(), 2.5);
    EXPECT_DOUBLE_EQ(registry.entries()[1].value(), 7.0);
}

} // namespace
