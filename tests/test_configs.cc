/**
 * @file
 * Unit tests for the configuration structs, their derived values and
 * their validation (user errors must fatal() with exit code 1).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "config/network_config.hh"
#include "config/router_config.hh"
#include "config/traffic_config.hh"
#include "network/topology.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::config;
using mediaworm::sim::kMicrosecond;
using mediaworm::sim::kMillisecond;
using mediaworm::sim::nanoseconds;

// --- RouterConfig -----------------------------------------------------------

TEST(RouterConfig, PaperDefaultsAreTable1)
{
    RouterConfig cfg;
    EXPECT_EQ(cfg.numPorts, 8);
    EXPECT_EQ(cfg.numVcs, 16);
    EXPECT_EQ(cfg.flitBufferDepth, 20);
    EXPECT_EQ(cfg.flitSizeBits, 32);
    EXPECT_EQ(cfg.linkBandwidthMbps, 400);
    EXPECT_EQ(cfg.scheduler, SchedulerKind::VirtualClock);
    EXPECT_EQ(cfg.crossbar, CrossbarKind::Multiplexed);
    cfg.validate(); // must not exit
}

TEST(RouterConfig, CycleTimeIsFlitSerialization)
{
    RouterConfig cfg;
    EXPECT_EQ(cfg.cycleTime(), nanoseconds(80));
    cfg.linkBandwidthMbps = 100;
    EXPECT_EQ(cfg.cycleTime(), nanoseconds(320));
}

TEST(RouterConfig, FlitsPerSecond)
{
    RouterConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.flitsPerSecond(), 12.5e6);
}

TEST(RouterConfig, DescribeMentionsKeyKnobs)
{
    RouterConfig cfg;
    const std::string text = cfg.describe();
    EXPECT_NE(text.find("8x8"), std::string::npos);
    EXPECT_NE(text.find("16 VCs"), std::string::npos);
    EXPECT_NE(text.find("virtual-clock"), std::string::npos);
}

TEST(RouterConfigDeath, RejectsBadPortCount)
{
    RouterConfig cfg;
    cfg.numPorts = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "numPorts");
}

TEST(RouterConfigDeath, RejectsBadVcCount)
{
    RouterConfig cfg;
    cfg.numVcs = 500;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "numVcs");
}

TEST(RouterConfigDeath, RejectsBadBuffers)
{
    RouterConfig cfg;
    cfg.flitBufferDepth = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "flitBufferDepth");
}

TEST(RouterConfig, EnumNames)
{
    EXPECT_STREQ(toString(SchedulerKind::Fifo), "fifo");
    EXPECT_STREQ(toString(SchedulerKind::VirtualClock),
                 "virtual-clock");
    EXPECT_STREQ(toString(SchedulerKind::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(SchedulerKind::WeightedRoundRobin),
                 "weighted-rr");
    EXPECT_STREQ(toString(CrossbarKind::Full), "full");
    EXPECT_STREQ(toString(CrossbarKind::Multiplexed), "multiplexed");
}

// --- TrafficConfig -----------------------------------------------------------

TEST(TrafficConfig, PaperStreamRateIs4Mbps)
{
    TrafficConfig cfg;
    EXPECT_NEAR(cfg.streamRateMbps(), 4.04, 0.05);
}

TEST(TrafficConfig, VtickIsInverseFlitRate)
{
    TrafficConfig cfg;
    // ~4.04 Mbps over 32-bit flits = ~126k flits/s -> ~7.9 us.
    const double vtick_us =
        static_cast<double>(cfg.streamVtick(32)) / kMicrosecond;
    EXPECT_NEAR(vtick_us, 7.92, 0.1);
}

TEST(TrafficConfig, VtickScalesWithFlitSize)
{
    TrafficConfig cfg;
    EXPECT_NEAR(static_cast<double>(cfg.streamVtick(64)),
                2.0 * static_cast<double>(cfg.streamVtick(32)), 2.0);
}

TEST(TrafficConfig, DefaultsValidate)
{
    TrafficConfig cfg;
    cfg.validate();
    EXPECT_EQ(cfg.frameInterval, 33 * kMillisecond);
    EXPECT_EQ(cfg.streamPlacement, StreamPlacement::Balanced);
}

TEST(TrafficConfigDeath, RejectsBadLoad)
{
    TrafficConfig cfg;
    cfg.inputLoad = -0.1;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "inputLoad");
}

TEST(TrafficConfigDeath, RejectsNanLoad)
{
    TrafficConfig cfg;
    cfg.inputLoad = std::nan("");
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "inputLoad nan out of range");
}

TEST(TrafficConfigDeath, RejectsBadMix)
{
    TrafficConfig cfg;
    cfg.realTimeFraction = 1.5;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "realTimeFraction");
}

TEST(TrafficConfigDeath, RejectsOneFlitMessages)
{
    TrafficConfig cfg;
    cfg.messageFlits = 1;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "flits");
}

TEST(TrafficConfig, ScaledCompressesFrameSizeAndInterval)
{
    TrafficConfig cfg;
    const TrafficConfig scaled = cfg.scaled(0.05);
    EXPECT_EQ(scaled.frameBytesMean, 16666.0 * 0.05);
    EXPECT_EQ(scaled.frameBytesStddev, 3333.0 * 0.05);
    EXPECT_EQ(scaled.frameInterval,
              static_cast<sim::Tick>(
                  static_cast<double>(33 * kMillisecond) * 0.05));
    // Bandwidth, load and message geometry are untouched.
    EXPECT_DOUBLE_EQ(scaled.streamRateMbps(), cfg.streamRateMbps());
    EXPECT_EQ(scaled.inputLoad, cfg.inputLoad);
    EXPECT_EQ(scaled.messageFlits, cfg.messageFlits);
    const TrafficConfig full = cfg.scaled(1.0);
    EXPECT_EQ(full.frameBytesMean, cfg.frameBytesMean);
    EXPECT_EQ(full.frameInterval, cfg.frameInterval);
}

TEST(TrafficConfigDeath, ScaledRejectsTimeScaleOutsideUnitInterval)
{
    TrafficConfig cfg;
    EXPECT_EXIT(cfg.scaled(0.0), testing::ExitedWithCode(1),
                "timeScale 0\\.000 out of \\(0,1\\]");
    EXPECT_EXIT(cfg.scaled(1.5), testing::ExitedWithCode(1),
                "timeScale 1\\.500 out of \\(0,1\\]");
}

TEST(TrafficConfigDeath, ScaledRejectsNanTimeScale)
{
    TrafficConfig cfg;
    EXPECT_EXIT(cfg.scaled(std::nan("")), testing::ExitedWithCode(1),
                "timeScale nan out of \\(0,1\\]");
}

TEST(TrafficConfig, DescribeMentionsMix)
{
    TrafficConfig cfg;
    cfg.realTimeFraction = 0.8;
    const std::string text = cfg.describe();
    EXPECT_NE(text.find("80:20"), std::string::npos);
}

// --- NetworkConfig ------------------------------------------------------------

TEST(NetworkConfig, SingleSwitchNodesEqualPorts)
{
    NetworkConfig cfg;
    cfg.validate();
    EXPECT_EQ(network::Topology::build(cfg, 8).numNodes(), 8);
}

TEST(NetworkConfig, FatMeshNodeCount)
{
    NetworkConfig cfg;
    cfg.topology = TopologyKind::FatMesh;
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    cfg.endpointsPerSwitch = 4;
    cfg.validate();
    const network::Topology topo = network::Topology::build(cfg, 8);
    EXPECT_EQ(topo.numNodes(), 16);
    // 4 endpoints + 2 neighbours * 2 fat links = 8.
    EXPECT_EQ(topo.portsRequired(), 8);
}

TEST(NetworkConfigDeath, RejectsFatFactorBeyondRouteCandidates)
{
    // Fits the port budget (1 endpoint + 7 fat links on 8 ports),
    // but a route entry holds only 4 candidate ports.
    NetworkConfig cfg;
    cfg.topology = TopologyKind::FatMesh;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.endpointsPerSwitch = 1;
    cfg.fatFactor = 7;
    EXPECT_EXIT(cfg.validate(8), testing::ExitedWithCode(1),
                "4-candidate route limit");
}

TEST(NetworkConfigDeath, RejectsSingleSwitchMesh)
{
    NetworkConfig cfg;
    cfg.topology = TopologyKind::FatMesh;
    cfg.meshWidth = 1;
    cfg.meshHeight = 1;
    EXPECT_EXIT(cfg.validate(8), testing::ExitedWithCode(1),
                "2 switches");
}

TEST(NetworkConfig, DescribeBothTopologies)
{
    NetworkConfig cfg;
    EXPECT_NE(cfg.describe().find("single switch"), std::string::npos);
    cfg.topology = TopologyKind::FatMesh;
    EXPECT_NE(cfg.describe().find("fat-mesh"), std::string::npos);
}

TEST(NetworkConfig, EnumNames)
{
    EXPECT_STREQ(toString(TopologyKind::SingleSwitch), "single-switch");
    EXPECT_STREQ(toString(FatLinkPolicy::LeastLoaded), "least-loaded");
    EXPECT_STREQ(toString(StreamPlacement::Balanced), "balanced");
    EXPECT_STREQ(toString(StreamPlacement::UniformRandom),
                 "uniform-random");
    EXPECT_STREQ(toString(RealTimeKind::MpegGop), "mpeg-gop");
}

} // namespace
