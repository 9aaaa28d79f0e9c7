/**
 * @file
 * Unit and property tests for the traffic-mix planner: VC
 * partitioning, stream counts, balanced placement and best-effort
 * rate derivation (Section 4.2.3 arithmetic).
 */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "traffic/traffic_mix.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::traffic;

// --- VC partitioning -------------------------------------------------------

TEST(VcPartition, SplitsProportionally)
{
    const VcPartition p = partitionVcs(16, 0.8);
    EXPECT_EQ(p.rtFirst, 0);
    EXPECT_EQ(p.rtCount, 13);
    EXPECT_EQ(p.beFirst, 13);
    EXPECT_EQ(p.beCount, 3);
}

TEST(VcPartition, EvenSplitAtFiftyFifty)
{
    const VcPartition p = partitionVcs(16, 0.5);
    EXPECT_EQ(p.rtCount, 8);
    EXPECT_EQ(p.beCount, 8);
}

TEST(VcPartition, AllRealTime)
{
    const VcPartition p = partitionVcs(16, 1.0);
    EXPECT_EQ(p.rtCount, 16);
    EXPECT_EQ(p.beCount, 0);
}

TEST(VcPartition, AllBestEffort)
{
    const VcPartition p = partitionVcs(16, 0.0);
    EXPECT_EQ(p.rtCount, 0);
    EXPECT_EQ(p.beCount, 16);
}

TEST(VcPartition, EachPresentClassGetsALane)
{
    // 90:10 with 4 VCs would round best-effort to zero lanes.
    const VcPartition p = partitionVcs(4, 0.9);
    EXPECT_GE(p.beCount, 1);
    EXPECT_GE(p.rtCount, 1);
    // And the mirror case.
    const VcPartition q = partitionVcs(4, 0.05);
    EXPECT_GE(q.rtCount, 1);
}

TEST(VcPartition, PartitionsAreDisjointAndCover)
{
    for (double f : {0.0, 0.1, 0.3, 0.5, 0.8, 0.95, 1.0}) {
        const VcPartition p = partitionVcs(16, f);
        EXPECT_EQ(p.rtFirst, 0);
        EXPECT_EQ(p.beFirst, p.rtCount);
        EXPECT_EQ(p.rtCount + p.beCount, 16) << "fraction " << f;
    }
}

// --- Mix planning ------------------------------------------------------------

class MixTest : public testing::Test
{
  protected:
    MixPlan
    plan(double load, double rt_fraction,
         config::StreamPlacement placement =
             config::StreamPlacement::Balanced,
         int num_nodes = 8)
    {
        config::RouterConfig router;
        config::TrafficConfig traffic;
        traffic.inputLoad = load;
        traffic.realTimeFraction = rt_fraction;
        traffic.streamPlacement = placement;
        Rng rng(77);
        return planMix(router, traffic, num_nodes, rng);
    }
};

TEST_F(MixTest, StreamCountMatchesPaperArithmetic)
{
    // Paper: load 0.8 at 80:20 -> RT load 0.64 of 400 Mbps = 256
    // Mbps per node = 64 four-Mbps streams (63 with the exact
    // 16,666-byte frame rate of 4.04 Mbps).
    const MixPlan p = plan(0.8, 0.8);
    EXPECT_NEAR(p.streamsPerNode, 64, 1);
    EXPECT_EQ(p.streams.size(),
              static_cast<std::size_t>(p.streamsPerNode) * 8);
    EXPECT_NEAR(p.plannedRtLoad, 0.64, 0.01);
    EXPECT_NEAR(p.plannedBeLoad, 0.16, 1e-9);
}

TEST_F(MixTest, StreamsPerVcCapacityIsSix)
{
    // Paper: 400 Mbps / 16 VCs / 4 Mbps = 6 connections per VC.
    const MixPlan p = plan(0.8, 0.8);
    EXPECT_EQ(p.streamsPerVcCapacity, 6);
}

TEST_F(MixTest, PureRealTimeHasNoBestEffort)
{
    const MixPlan p = plan(0.8, 1.0);
    EXPECT_EQ(p.beInterval, kTickNever);
    EXPECT_DOUBLE_EQ(p.plannedBeLoad, 0.0);
}

TEST_F(MixTest, PureBestEffortHasNoStreams)
{
    const MixPlan p = plan(0.8, 0.0);
    EXPECT_TRUE(p.streams.empty());
    EXPECT_NE(p.beInterval, kTickNever);
}

/** One VC cannot hold both classes of a mixed load: partitionVcs
 *  leaves the streams no lane, and planning refuses with a
 *  diagnostic instead of an assertion. Pure mixes still plan. */
TEST(MixPlanning, OneVcMixedLoadExitsWithDiagnostic)
{
    config::RouterConfig router;
    router.numVcs = 1;
    config::TrafficConfig traffic;
    traffic.inputLoad = 0.9;
    traffic.realTimeFraction = 0.8;
    Rng rng(77);
    EXPECT_EXIT(planMix(router, traffic, 8, rng),
                testing::ExitedWithCode(1),
                "real-time fraction 0.8 .* numVcs is 1");

    for (const double pure : {0.0, 1.0}) {
        traffic.realTimeFraction = pure;
        Rng pure_rng(77);
        const MixPlan p = planMix(router, traffic, 8, pure_rng);
        EXPECT_EQ(p.partition.rtCount + p.partition.beCount, 1);
    }
}

TEST_F(MixTest, BestEffortIntervalMatchesRate)
{
    const MixPlan p = plan(0.8, 0.5);
    // BE load 0.4 of 12.5 Mflit/s over 20-flit messages = 250k
    // msgs/s -> 4 us spacing.
    EXPECT_NEAR(static_cast<double>(p.beInterval),
                static_cast<double>(microseconds(4)), 1000.0);
}

TEST_F(MixTest, BalancedPlacementBalancesEndpoints)
{
    const MixPlan p = plan(0.9, 1.0);
    std::map<int, int> out_degree;
    std::map<int, int> in_degree;
    for (const Stream& stream : p.streams) {
        ++out_degree[stream.src.value()];
        ++in_degree[stream.dst.value()];
        EXPECT_NE(stream.src, stream.dst);
    }
    for (int node = 0; node < 8; ++node) {
        EXPECT_EQ(out_degree[node], p.streamsPerNode);
        EXPECT_EQ(in_degree[node], p.streamsPerNode);
    }
}

TEST_F(MixTest, BalancedPlacementBalancesLanes)
{
    const MixPlan p = plan(0.9, 1.0);
    // Per (destination, lane) stream counts differ by at most one.
    std::map<std::pair<int, int>, int> per_dest_lane;
    for (const Stream& stream : p.streams)
        ++per_dest_lane[{stream.dst.value(), stream.vcLane}];
    int lo = 1 << 30;
    int hi = 0;
    for (const auto& [key, count] : per_dest_lane) {
        lo = std::min(lo, count);
        hi = std::max(hi, count);
    }
    EXPECT_LE(hi - lo, 1);
    EXPECT_LE(hi, p.streamsPerVcCapacity)
        << "admission arithmetic violated";
}

TEST_F(MixTest, UniformPlacementStaysInPartitionAndAvoidsSelf)
{
    const MixPlan p =
        plan(0.9, 0.8, config::StreamPlacement::UniformRandom);
    for (const Stream& stream : p.streams) {
        EXPECT_NE(stream.src, stream.dst);
        EXPECT_GE(stream.vcLane, p.partition.rtFirst);
        EXPECT_LT(stream.vcLane,
                  p.partition.rtFirst + p.partition.rtCount);
    }
}

TEST_F(MixTest, StreamsCarryWorkloadParameters)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.inputLoad = 0.5;
    traffic.realTimeFraction = 1.0;
    Rng rng(3);
    const MixPlan p = planMix(router, traffic, 8, rng);
    const Tick vtick = traffic.streamVtick(router.flitSizeBits);
    for (const Stream& stream : p.streams) {
        EXPECT_EQ(stream.vtick, vtick);
        EXPECT_EQ(stream.frameInterval, traffic.frameInterval);
        EXPECT_GE(stream.startOffset, 0);
        EXPECT_LT(stream.startOffset, traffic.frameInterval);
        EXPECT_EQ(stream.cls, router::TrafficClass::Vbr);
    }
}

TEST_F(MixTest, CbrMixProducesCbrStreams)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.inputLoad = 0.5;
    traffic.realTimeFraction = 1.0;
    traffic.realTimeKind = config::RealTimeKind::Cbr;
    Rng rng(3);
    const MixPlan p = planMix(router, traffic, 8, rng);
    for (const Stream& stream : p.streams)
        EXPECT_EQ(stream.cls, router::TrafficClass::Cbr);
}

TEST_F(MixTest, UniqueStreamIds)
{
    const MixPlan p = plan(0.9, 0.9);
    std::map<int, int> ids;
    for (const Stream& stream : p.streams)
        ++ids[stream.id.value()];
    for (const auto& [id, count] : ids)
        EXPECT_EQ(count, 1) << "stream id " << id << " duplicated";
}

TEST_F(MixTest, DescribeSummarizesPlan)
{
    const MixPlan p = plan(0.8, 0.8);
    const std::string text = p.describe();
    EXPECT_NE(text.find("RT streams"), std::string::npos);
    EXPECT_NE(text.find("BE"), std::string::npos);
}

/** Parameterized property sweep over loads. */
class MixLoadSweep : public testing::TestWithParam<double>
{
};

TEST_P(MixLoadSweep, PlannedLoadTracksRequestedLoad)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.inputLoad = GetParam();
    traffic.realTimeFraction = 0.8;
    Rng rng(5);
    const MixPlan p = planMix(router, traffic, 8, rng);
    // Quantization error is at most one stream's bandwidth.
    EXPECT_NEAR(p.plannedRtLoad, GetParam() * 0.8, 4.1 / 400.0);
    // Lanes never exceed the admission capacity at admissible loads.
    std::map<std::pair<int, int>, int> per_dest_lane;
    for (const Stream& stream : p.streams)
        ++per_dest_lane[{stream.dst.value(), stream.vcLane}];
    for (const auto& [key, count] : per_dest_lane)
        EXPECT_LE(count, p.streamsPerVcCapacity);
}

INSTANTIATE_TEST_SUITE_P(Loads, MixLoadSweep,
                         testing::Values(0.1, 0.3, 0.5, 0.7, 0.8, 0.9,
                                         0.96));

} // namespace
