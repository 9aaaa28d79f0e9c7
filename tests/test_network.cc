/**
 * @file
 * Topology-level tests: wiring of the single switch and the fat
 * mesh, end-to-end delivery between every node pair, and fat-link
 * policy behaviour.
 */

#include <gtest/gtest.h>

#include "network/network.hh"
#include "traffic/stream.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::network;

class NetworkTest : public testing::Test
{
  protected:
    void
    build(config::TopologyKind topology,
          config::FatLinkPolicy policy =
              config::FatLinkPolicy::LeastLoaded)
    {
        netCfg.topology = topology;
        netCfg.fatLinkPolicy = policy;
        rng = Rng(5);
        net = std::make_unique<Network>(simulator, routerCfg, netCfg,
                                        metrics, rng);
    }

    /** Sends one message and returns delivered frame count delta. */
    void
    sendMessage(int src, int dst, int lane = 0, bool eof = true)
    {
        traffic::MessageDesc desc;
        desc.stream = StreamId(src * 100 + dst);
        desc.dest = NodeId(dst);
        desc.cls = router::TrafficClass::Vbr;
        desc.vcLane = lane;
        desc.vtick = microseconds(8);
        desc.numFlits = 5;
        desc.endOfFrame = eof;
        net->ni(src).injectMessage(desc);
    }

    Simulator simulator;
    config::RouterConfig routerCfg;
    config::NetworkConfig netCfg;
    MetricsHub metrics;
    Rng rng{5};
    std::unique_ptr<Network> net;
};

TEST_F(NetworkTest, SingleSwitchShape)
{
    build(config::TopologyKind::SingleSwitch);
    EXPECT_EQ(net->numNodes(), 8);
    EXPECT_EQ(net->numRouters(), 1);
    EXPECT_EQ(net->switchOfNode(5), 0);
    // 8 injection + 8 ejection links.
    EXPECT_EQ(net->links().size(), 16u);
}

/**
 * An ejection VC keeps delivering however many flits it carries: its
 * port spends no credits. 1.1 million flits through one VC are more
 * than the 2^20 credits an ejection port once held without getting
 * any back, which stalled the run with flits still queued at the
 * host.
 */
TEST_F(NetworkTest, EjectionVcDeliversBeyondItsCreditDepth)
{
    routerCfg.numVcs = 1;
    build(config::TopologyKind::SingleSwitch);
    constexpr int kMessages = 11;
    constexpr int kFlits = 100000;
    static_assert(kMessages * kFlits > 1 << 20);
    for (int m = 0; m < kMessages; ++m) {
        traffic::MessageDesc desc;
        desc.stream = StreamId(1);
        desc.dest = NodeId(1);
        desc.cls = router::TrafficClass::BestEffort;
        desc.seq = m;
        desc.numFlits = kFlits;
        net->ni(0).injectMessage(desc);
    }
    simulator.runToCompletion();
    EXPECT_EQ(metrics.flitsDelivered(),
              static_cast<std::uint64_t>(kMessages) * kFlits);
    EXPECT_EQ(net->totalBacklogFlits(), 0u);
}

TEST_F(NetworkTest, SingleSwitchAllPairsDeliver)
{
    build(config::TopologyKind::SingleSwitch);
    int sent = 0;
    for (int src = 0; src < 8; ++src) {
        for (int dst = 0; dst < 8; ++dst) {
            if (src == dst)
                continue;
            sendMessage(src, dst, (src + dst) % routerCfg.numVcs);
            ++sent;
        }
    }
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(),
              static_cast<std::uint64_t>(sent));
    EXPECT_EQ(metrics.flitsDelivered(),
              static_cast<std::uint64_t>(sent) * 5);
    EXPECT_EQ(net->totalBacklogFlits(), 0u);
    net->router(0).checkInvariants();
}

TEST_F(NetworkTest, FatMeshShape)
{
    build(config::TopologyKind::FatMesh);
    EXPECT_EQ(net->numNodes(), 16);
    EXPECT_EQ(net->numRouters(), 4);
    EXPECT_EQ(net->switchOfNode(0), 0);
    EXPECT_EQ(net->switchOfNode(7), 1);
    EXPECT_EQ(net->switchOfNode(15), 3);
    // 16 NI link pairs + 8 directed fat channels per dimension:
    // 4 adjacent switch pairs x fat 2 x 2 directions = 16.
    EXPECT_EQ(net->links().size(), 16u * 2 + 16u);
}

TEST_F(NetworkTest, FatMeshAllPairsDeliver)
{
    build(config::TopologyKind::FatMesh);
    int sent = 0;
    for (int src = 0; src < 16; ++src) {
        for (int dst = 0; dst < 16; ++dst) {
            if (src == dst)
                continue;
            sendMessage(src, dst, (src * 3 + dst) % routerCfg.numVcs);
            ++sent;
        }
    }
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(),
              static_cast<std::uint64_t>(sent));
    for (int r = 0; r < 4; ++r)
        net->router(r).checkInvariants();
    EXPECT_EQ(net->totalBacklogFlits(), 0u);
}

TEST_F(NetworkTest, FatMeshSameSwitchTrafficStaysLocal)
{
    build(config::TopologyKind::FatMesh);
    sendMessage(0, 3); // both on switch 0
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(), 1u);
    // No inter-switch link carried any flits.
    for (const auto& link : net->links()) {
        if (link->name().find("sw") == 0) {
            EXPECT_EQ(link->flitsSent(), 0u) << link->name();
        }
    }
}

TEST_F(NetworkTest, FatMeshDiagonalTakesTwoHops)
{
    build(config::TopologyKind::FatMesh);
    sendMessage(0, 15); // switch 0 -> switch 3 (diagonal)
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(), 1u);
    // Flits crossed exactly two inter-switch channels (5 flits each).
    std::uint64_t inter_switch = 0;
    for (const auto& link : net->links()) {
        if (link->name().find("sw") == 0)
            inter_switch += link->flitsSent();
    }
    EXPECT_EQ(inter_switch, 10u);
}

TEST_F(NetworkTest, StaticPolicyDeliversEverything)
{
    build(config::TopologyKind::FatMesh, config::FatLinkPolicy::Static);
    for (int dst = 4; dst < 16; ++dst)
        sendMessage(0, dst, dst % routerCfg.numVcs);
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(), 12u);
}

TEST_F(NetworkTest, RandomPolicyDeliversEverything)
{
    build(config::TopologyKind::FatMesh, config::FatLinkPolicy::Random);
    for (int dst = 4; dst < 16; ++dst)
        sendMessage(0, dst, dst % routerCfg.numVcs);
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(), 12u);
}

TEST_F(NetworkTest, LeastLoadedSpreadsAcrossFatLinks)
{
    build(config::TopologyKind::FatMesh);
    // Many concurrent messages from switch 0 to switch 1: the two
    // eastbound links should both carry traffic.
    for (int lane = 0; lane < 8; ++lane) {
        for (int e = 0; e < 4; ++e)
            sendMessage(e, 4 + e, lane, false);
    }
    simulator.runToCompletion();
    std::vector<std::uint64_t> east_counts;
    for (const auto& link : net->links()) {
        if (link->name().find("sw0") == 0
            && link->flitsSent() > 0) {
            east_counts.push_back(link->flitsSent());
        }
    }
    EXPECT_GE(east_counts.size(), 2u)
        << "all traffic funnelled through one fat link";
}

using NetworkDeathTest = NetworkTest;

TEST_F(NetworkDeathTest, RejectsFewerVcsThanRoutingClasses)
{
    // Dimension-order routing on a torus splits the VCs into two
    // dateline classes, so one VC cannot carry it.
    routerCfg.numVcs = 1;
    netCfg.meshWidth = 4;
    netCfg.meshHeight = 4;
    netCfg.endpointsPerSwitch = 1;
    EXPECT_EXIT(build(config::TopologyKind::Torus),
                testing::ExitedWithCode(1),
                "dimension-order routing on the torus needs 2 VC "
                "classes, but numVcs is 1");
}

} // namespace
