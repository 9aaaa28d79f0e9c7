/**
 * @file
 * Tests for statistics-registry wiring across the network components
 * and for larger mesh shapes than the paper's 2x2.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "network/network.hh"
#include "stats/registry.hh"
#include "traffic/stream.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::network;

/** Current value of the entry named @p name; NaN if absent. */
double
lookup(const stats::Registry& registry, const std::string& name)
{
    for (const stats::StatEntry& entry : registry.entries()) {
        if (entry.name == name)
            return entry.value();
    }
    return std::nan("");
}

traffic::MessageDesc
simpleMessage(int src, int dst)
{
    traffic::MessageDesc desc;
    desc.stream = StreamId(src * 100 + dst);
    desc.dest = NodeId(dst);
    desc.cls = router::TrafficClass::Vbr;
    desc.vcLane = 0;
    desc.vtick = microseconds(8);
    desc.numFlits = 5;
    desc.endOfFrame = true;
    return desc;
}

TEST(StatsWiring, SingleSwitchRegistryTracksTraffic)
{
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    stats::Registry registry;
    net.registerStats(registry);
    // 3 router counters + 8 port loads + 16 NI stats + 16 links.
    EXPECT_EQ(registry.entries().size(), 3u + 8 + 16 + 16);
    EXPECT_DOUBLE_EQ(lookup(registry, "router0.flits_forwarded"), 0.0);

    net.ni(0).injectMessage(simpleMessage(0, 5));
    simulator.runToCompletion();

    EXPECT_DOUBLE_EQ(lookup(registry, "router0.flits_forwarded"), 5.0);
    EXPECT_DOUBLE_EQ(lookup(registry, "router0.headers_routed"), 1.0);
    EXPECT_DOUBLE_EQ(lookup(registry, "ni0.flits_injected"), 5.0);
    EXPECT_DOUBLE_EQ(lookup(registry, "ni0.backlog_flits"), 0.0);
    EXPECT_DOUBLE_EQ(lookup(registry, "link.inj0.flits"), 5.0);
    EXPECT_DOUBLE_EQ(lookup(registry, "link.ej5.flits"), 5.0);
    EXPECT_DOUBLE_EQ(lookup(registry, "router0.allocation_waits"), 0.0);
}

TEST(StatsWiring, FatMeshRegistersEveryRouter)
{
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    stats::Registry registry;
    net.registerStats(registry);
    for (int r = 0; r < 4; ++r) {
        EXPECT_FALSE(std::isnan(lookup(registry, 
            "router" + std::to_string(r) + ".flits_forwarded")))
            << "router " << r << " missing from the registry";
    }
}

TEST(LargerMesh, ThreeByThreeThinMeshDelivers)
{
    // Beyond the paper: a 3x3 mesh with single (thin) inter-switch
    // links fits the 8-port router with 4 endpoints per switch.
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    net_cfg.meshWidth = 3;
    net_cfg.meshHeight = 3;
    net_cfg.fatFactor = 1;
    net_cfg.endpointsPerSwitch = 4;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    EXPECT_EQ(net.numNodes(), 36);
    EXPECT_EQ(net.numRouters(), 9);

    // Corner to corner crosses four hops of XY routing.
    net.ni(0).injectMessage(simpleMessage(0, 35));
    // And a reverse-direction message exercises west/north ports.
    net.ni(35).injectMessage(simpleMessage(35, 0));
    simulator.runToCompletion();

    EXPECT_EQ(metrics.frames().framesDelivered(), 2u);
    for (int r = 0; r < 9; ++r)
        net.router(r).checkInvariants();
}

TEST(LargerMesh, RectangularMeshDelivers)
{
    // 4x2 mesh, fat factor 1: row-interior switches have 3
    // neighbours (3 ports) + 4 endpoints = 7 ports.
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    net_cfg.meshWidth = 4;
    net_cfg.meshHeight = 2;
    net_cfg.fatFactor = 1;
    net_cfg.endpointsPerSwitch = 4;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    EXPECT_EQ(net.numNodes(), 32);
    int sent = 0;
    for (int src : {0, 13, 31}) {
        for (int dst : {5, 18, 27}) {
            if (src == dst)
                continue;
            net.ni(src).injectMessage(simpleMessage(src, dst));
            ++sent;
        }
    }
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(),
              static_cast<std::uint64_t>(sent));
}

} // namespace
