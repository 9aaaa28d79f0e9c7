/**
 * @file
 * Topology-graph and routing-policy test battery (ctest label
 * "topology").
 *
 * Three groups:
 *
 *  1. Graph properties over parameter sweeps: exact node/router/
 *     channel counts, degrees and port budgets, link symmetry and
 *     connectivity for every builder (single switch, fat mesh,
 *     mesh, torus, Clos).
 *
 *  2. Routing delivery: for every topology x policy and every
 *     (src, dst) pair, walking the tables reaches the destination
 *     within the theoretical hop limit - checked for the first
 *     candidate (the deterministic path) and for the escape (last)
 *     candidate of adaptive entries separately.
 *
 *  3. Deadlock freedom: the channel-dependency graph of every
 *     deterministic policy is acyclic; adaptive policies have a
 *     non-empty escape candidate at every (router, dest), and their
 *     direct escape dependencies are acyclic. That is all the
 *     escape-only CDG proves: it does not build the indirect
 *     dependencies (escape to escape through adaptive channels) or
 *     the cross ones (adaptive to escape), so it is not Duato's
 *     condition. Deadlock freedom under adaptive routing rests on
 *     the router's atomic allocation rule (an adaptive VC is taken
 *     only when unallocated and drained downstream; pinned by
 *     RouterTest.AdaptiveCandidateMustBeDrainedDownstream) and on
 *     the saturation soak (test_deadlock.cc). A negative control
 *     (torus dimension-order squeezed to one VC class) proves the
 *     cycle detector actually detects the wrap cycle.
 */

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/router_config.hh"
#include "network/routing.hh"
#include "network/topology.hh"
#include "reference_topology.hh"

namespace {

using namespace mediaworm;
using network::RoutingTables;
using network::Topology;

/** Undirected channel count of a width x height grid. */
int
gridPairs(int w, int h)
{
    return (w - 1) * h + w * (h - 1);
}

// --- Graph properties ------------------------------------------------------

TEST(Topology, SingleSwitchShape)
{
    for (int ports : {2, 8, 16}) {
        const Topology t = Topology::singleSwitch(ports);
        EXPECT_EQ(t.numRouters(), 1);
        EXPECT_EQ(t.numNodes(), ports);
        EXPECT_EQ(t.portsRequired(), ports);
        EXPECT_TRUE(t.channels().empty());
        EXPECT_TRUE(reference::connected(t));
        EXPECT_TRUE(reference::symmetric(t));
        for (int p = 0; p < ports; ++p) {
            EXPECT_EQ(t.endpoints()[static_cast<std::size_t>(p)].port,
                      p);
            EXPECT_EQ(t.routerOfNode(p), 0);
        }
    }
}

TEST(Topology, MeshShapeSweep)
{
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {2, 2}, {3, 3}, {4, 2}, {8, 8}, {1, 4}}) {
        for (int eps : {1, 2}) {
            const Topology t = Topology::mesh(w, h, eps);
            EXPECT_EQ(t.numRouters(), w * h);
            EXPECT_EQ(t.numNodes(), w * h * eps);
            EXPECT_EQ(static_cast<int>(t.channels().size()),
                      2 * gridPairs(w, h));
            EXPECT_TRUE(reference::connected(t));
            EXPECT_TRUE(reference::symmetric(t));
            // Degree: 2 at corners, up to 4 in the interior.
            for (int s = 0; s < w * h; ++s) {
                const int x = s % w;
                const int y = s / w;
                const int expected = (x > 0) + (x < w - 1) + (y > 0)
                    + (y < h - 1);
                EXPECT_EQ(reference::degreeOf(t, s), expected)
                    << w << "x" << h << " switch " << s;
            }
            // Port budget: endpoints + one link per present
            // direction at the busiest switch.
            const int max_deg = (w > 2 ? 2 : w - 1)
                + (h > 2 ? 2 : h - 1);
            EXPECT_EQ(t.portsRequired(), eps + max_deg);
        }
    }
}

TEST(Topology, TorusShapeSweep)
{
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {2, 2}, {3, 3}, {4, 2}, {8, 8}}) {
        for (int eps : {1, 2}) {
            const Topology t = Topology::torus(w, h, eps);
            EXPECT_EQ(t.numRouters(), w * h);
            EXPECT_EQ(t.numNodes(), w * h * eps);
            // Every switch has all present directions: w*h channels
            // per direction pair that exists.
            const int expected_channels =
                (w > 1 ? 2 * w * h : 0) + (h > 1 ? 2 * w * h : 0);
            EXPECT_EQ(static_cast<int>(t.channels().size()),
                      expected_channels);
            EXPECT_TRUE(reference::connected(t));
            EXPECT_TRUE(reference::symmetric(t));
            const int uniform_deg = 2 * (w > 1) + 2 * (h > 1);
            for (int s = 0; s < w * h; ++s) {
                // Neighbours, not channels: on a 2-wide ring East
                // and West reach the same switch.
                EXPECT_LE(reference::degreeOf(t, s), uniform_deg);
                EXPECT_GE(reference::degreeOf(t, s), uniform_deg / 2);
            }
            EXPECT_EQ(t.portsRequired(), eps + uniform_deg);
        }
    }
}

TEST(Topology, ClosShapeSweep)
{
    for (const auto& [m, n, r] :
         std::vector<std::tuple<int, int, int>>{
             {2, 2, 2}, {4, 4, 8}, {3, 2, 4}, {4, 4, 16}}) {
        const Topology t = Topology::clos(m, n, r);
        EXPECT_EQ(t.numRouters(), r + m);
        EXPECT_EQ(t.numNodes(), n * r);
        EXPECT_EQ(static_cast<int>(t.channels().size()), 2 * m * r);
        EXPECT_TRUE(reference::connected(t));
        EXPECT_TRUE(reference::symmetric(t));
        for (int leaf = 0; leaf < r; ++leaf)
            EXPECT_EQ(reference::degreeOf(t, leaf), m);
        for (int spine = r; spine < r + m; ++spine)
            EXPECT_EQ(reference::degreeOf(t, spine), r);
        // Leaves need n + m ports; spines need r.
        EXPECT_EQ(t.portsRequired(), std::max(n + m, r));
        // Node l*n+e lives on leaf l at port e.
        for (int node = 0; node < n * r; ++node) {
            EXPECT_EQ(t.routerOfNode(node), node / n);
            EXPECT_EQ(
                t.endpoints()[static_cast<std::size_t>(node)].port,
                node % n);
        }
    }
}

TEST(Topology, FatMeshShapeMatchesLegacyLayout)
{
    const Topology t = Topology::fatMesh(2, 2, 2, 4);
    EXPECT_EQ(t.numRouters(), 4);
    EXPECT_EQ(t.numNodes(), 16);
    EXPECT_EQ(static_cast<int>(t.channels().size()),
              2 * 2 * gridPairs(2, 2));
    EXPECT_TRUE(reference::connected(t));
    EXPECT_TRUE(reference::symmetric(t));
    EXPECT_EQ(t.portsRequired(), 4 + 2 * 2);
    // Endpoint ports come first; the East fat pair of switch 0
    // starts right after them.
    EXPECT_EQ(t.dirPort(0, 0), 4);
}

TEST(Topology, OutChannelMapIsConsistent)
{
    for (const Topology& t :
         {Topology::mesh(3, 3, 1), Topology::torus(4, 4, 2),
          Topology::clos(4, 4, 8), Topology::fatMesh(2, 2, 2, 4)}) {
        // Every channel is reachable through its (router, port)
        // slot, and every slot round-trips.
        for (std::size_t c = 0; c < t.channels().size(); ++c) {
            const network::TopoChannel& ch = t.channels()[c];
            EXPECT_EQ(t.outChannelAt(ch.srcRouter, ch.srcPort),
                      static_cast<int>(c));
        }
        for (int r = 0; r < t.numRouters(); ++r) {
            for (int chan : t.outChannelsOf(r))
                EXPECT_EQ(t.channels()[static_cast<std::size_t>(chan)]
                              .srcRouter,
                          r);
        }
    }
}

TEST(Topology, BufferBytesCountWiredPortsBothSides)
{
    config::RouterConfig router; // 16 VCs x 20 flits x 64 B x 2
    EXPECT_EQ(Topology::singleSwitch(8).bufferBytes(router),
              8 * 40960.0);
    // 4 switches x (4 endpoints + 2 x 2 fat links).
    const Topology fat = Topology::fatMesh(2, 2, 2, 4);
    EXPECT_EQ(fat.bufferBytes(router), 4 * 8 * 40960.0);
    EXPECT_TRUE(fat.budgetError(router).empty());
    // Clos: 8 leaves x (4 endpoints + 4 uplinks) + 4 spines x 8.
    EXPECT_EQ(Topology::clos(4, 4, 8).bufferBytes(router),
              (8 * 8 + 4 * 8) * 40960.0);
}

TEST(Topology, BudgetRejectsTheTorusBadAllocReproducer)
{
    // mediaworm_sim --topology torus8x8 --vcs 64 --buffers 4096: every
    // value in range, but 64 routers x 5 wired ports of 64 x 4096-flit
    // buffers on both sides is 10 GiB.
    const Topology torus = Topology::torus(8, 8, 1);
    config::RouterConfig router;
    router.numVcs = config::kMaxVcs;
    router.flitBufferDepth = 4096;
    EXPECT_EQ(torus.bufferBytes(router), 10.0 * (1 << 30));
    const std::string error = torus.budgetError(router);
    EXPECT_NE(error.find("10240.0 MiB"), std::string::npos) << error;
    EXPECT_NE(error.find("1024 MiB limit"), std::string::npos) << error;
    router.flitBufferDepth = 400;
    EXPECT_TRUE(torus.budgetError(router).empty());
}

TEST(Topology, BudgetRejectsPortOverflow)
{
    config::RouterConfig router; // 8 ports
    // 3x2 fat mesh: the middle column has 3 neighbours, so 4
    // endpoints + 3 x 2 fat links need 10 ports.
    std::string error =
        Topology::fatMesh(3, 2, 2, 4).budgetError(router);
    EXPECT_NE(error.find("fat-mesh needs 10-port routers"),
              std::string::npos) << error;
    EXPECT_NE(error.find("has 8 ports"), std::string::npos) << error;
    // Clos leaf: n = 6 endpoints + m = 3 uplinks.
    error = Topology::clos(3, 6, 4).budgetError(router);
    EXPECT_NE(error.find("clos needs 9-port routers"), std::string::npos)
        << error;
    // Clos spine: one port per leaf, r = 12.
    error = Topology::clos(2, 2, 12).budgetError(router);
    EXPECT_NE(error.find("clos needs 12-port routers"),
              std::string::npos) << error;
    // Exactly full routers fit.
    EXPECT_TRUE(Topology::clos(4, 4, 8).budgetError(router).empty());
    EXPECT_TRUE(Topology::fatMesh(2, 2, 2, 4).budgetError(router).empty());
}

// --- Routing delivery ------------------------------------------------------

/**
 * Walks @p tables from @p src's router toward @p dst taking
 * candidate @p pick at every hop (clamped to the entry's count) and
 * returns the hop count, or -1 when the walk exceeds @p limit.
 */
int
walk(const Topology& topo, const RoutingTables& tables, int src,
     int dst, int pick, int limit)
{
    int cur = topo.routerOfNode(src);
    const int dest = topo.routerOfNode(dst);
    int hops = 0;
    while (cur != dest) {
        const router::RouteCandidates& rc =
            tables.perRouter[static_cast<std::size_t>(cur)]
                            [static_cast<std::size_t>(dst)];
        if (rc.count < 1 || ++hops > limit)
            return -1;
        const int i = std::min(pick, rc.count - 1);
        const int chan = topo.outChannelAt(
            cur, rc.ports[static_cast<std::size_t>(i)]);
        if (chan < 0)
            return -1;
        cur = topo.channels()[static_cast<std::size_t>(chan)]
                  .dstRouter;
    }
    // Final hop: the entry at the destination router names the
    // ejection port.
    const router::RouteCandidates& rc =
        tables.perRouter[static_cast<std::size_t>(dest)]
                        [static_cast<std::size_t>(dst)];
    EXPECT_EQ(rc.count, 1);
    EXPECT_EQ(rc.ports[0],
              topo.endpoints()[static_cast<std::size_t>(dst)].port);
    return hops;
}

void
expectDelivers(const Topology& topo, config::RoutingKind kind,
               config::FatLinkPolicy fat_links =
                   config::FatLinkPolicy::LeastLoaded)
{
    const RoutingTables tables = buildRouting(topo, kind, fat_links);
    const int limit = 2 * topo.numRouters() + 2;
    for (int src = 0; src < topo.numNodes(); ++src) {
        for (int dst = 0; dst < topo.numNodes(); ++dst) {
            if (src == dst)
                continue;
            // First candidate (the deterministic choice) and the
            // escape (last) candidate must both reach.
            EXPECT_GE(walk(topo, tables, src, dst, 0, limit), 0)
                << "first candidate " << src << "->" << dst;
            EXPECT_GE(walk(topo, tables, src, dst, 3, limit), 0)
                << "escape candidate " << src << "->" << dst;
        }
    }
}

/** The fat-link policies the fat-mesh batteries cover. */
constexpr config::FatLinkPolicy kFatLinkPolicies[] = {
    config::FatLinkPolicy::LeastLoaded, config::FatLinkPolicy::Static,
    config::FatLinkPolicy::Random};

TEST(Routing, DimensionOrderDeliversEverywhere)
{
    expectDelivers(Topology::mesh(4, 3, 2),
                   config::RoutingKind::DimensionOrder);
    expectDelivers(Topology::torus(4, 4, 1),
                   config::RoutingKind::DimensionOrder);
    expectDelivers(Topology::clos(4, 4, 8),
                   config::RoutingKind::DimensionOrder);
    // The paper's two shapes: every single-switch entry is an
    // ejection; the fat mesh under each fat-link policy.
    expectDelivers(Topology::singleSwitch(8),
                   config::RoutingKind::DimensionOrder);
    for (const config::FatLinkPolicy policy : kFatLinkPolicies) {
        SCOPED_TRACE(config::toString(policy));
        expectDelivers(Topology::fatMesh(2, 2, 2, 4),
                       config::RoutingKind::DimensionOrder, policy);
        expectDelivers(Topology::fatMesh(4, 2, 2, 4),
                       config::RoutingKind::DimensionOrder, policy);
    }
}

TEST(Routing, UpDownDeliversEverywhere)
{
    expectDelivers(Topology::mesh(4, 3, 2),
                   config::RoutingKind::UpDown);
    expectDelivers(Topology::torus(4, 4, 1),
                   config::RoutingKind::UpDown);
    expectDelivers(Topology::clos(4, 4, 8),
                   config::RoutingKind::UpDown);
}

TEST(Routing, AdaptiveDeliversEverywhere)
{
    expectDelivers(Topology::mesh(4, 3, 2),
                   config::RoutingKind::Adaptive);
    expectDelivers(Topology::torus(4, 4, 1),
                   config::RoutingKind::Adaptive);
    expectDelivers(Topology::clos(4, 4, 8),
                   config::RoutingKind::Adaptive);
}

TEST(Routing, FatChannelEntriesFollowTheFatLinkPolicy)
{
    // 2x2 fat-2 mesh: switch 0's East fat pair is ports 4-5, and
    // node 15 (switch 3) leaves East first.
    const Topology t = Topology::fatMesh(2, 2, 2, 4);
    using Select = router::RouteCandidates::Select;
    for (const config::FatLinkPolicy policy : kFatLinkPolicies) {
        SCOPED_TRACE(config::toString(policy));
        const RoutingTables tables = buildRouting(
            t, config::RoutingKind::DimensionOrder, policy);
        EXPECT_EQ(tables.vcClasses, 1);
        EXPECT_FALSE(tables.adaptive);
        const router::RouteCandidates& rc = tables.perRouter[0][15];
        if (policy == config::FatLinkPolicy::Static) {
            EXPECT_EQ(rc.count, 1);
            EXPECT_EQ(rc.ports[0], 4 + 15 % 2);
        } else {
            EXPECT_EQ(rc.count, 2);
            EXPECT_EQ(rc.ports[0], 4);
            EXPECT_EQ(rc.ports[1], 5);
            EXPECT_EQ(rc.select, policy == config::FatLinkPolicy::Random
                                     ? Select::Random
                                     : Select::LeastLoaded);
        }
        // Ejection entries are single whatever the policy.
        EXPECT_EQ(tables.perRouter[3][15].count, 1);
        EXPECT_EQ(tables.perRouter[3][15].ports[0], 3);
    }
}

TEST(Routing, DimensionOrderGridPathsAreMinimal)
{
    const Topology mesh = Topology::mesh(5, 4, 1);
    const RoutingTables tables =
        buildRouting(mesh, config::RoutingKind::DimensionOrder);
    for (int src = 0; src < mesh.numNodes(); ++src) {
        for (int dst = 0; dst < mesh.numNodes(); ++dst) {
            if (src == dst)
                continue;
            const int manhattan = std::abs(src % 5 - dst % 5)
                + std::abs(src / 5 - dst / 5);
            EXPECT_EQ(walk(mesh, tables, src, dst, 0, 64), manhattan);
        }
    }
}

TEST(Routing, BfsTreeSpansEveryTopology)
{
    for (const Topology& t :
         {Topology::mesh(4, 3, 1), Topology::torus(4, 4, 1),
          Topology::clos(4, 4, 8)}) {
        const std::vector<int> parents = network::bfsTreeParents(t);
        ASSERT_EQ(static_cast<int>(parents.size()), t.numRouters());
        EXPECT_EQ(parents[0], -1);
        for (int r = 1; r < t.numRouters(); ++r) {
            // Every router reaches the root through finitely many
            // parents.
            int cur = r;
            int steps = 0;
            while (cur != 0) {
                cur = parents[static_cast<std::size_t>(cur)];
                ASSERT_GE(cur, 0);
                ASSERT_LE(++steps, t.numRouters());
            }
        }
    }
}

// --- Deadlock freedom ------------------------------------------------------

void
expectAcyclicCdg(const Topology& topo, config::RoutingKind kind,
                 bool escape_only,
                 config::FatLinkPolicy fat_links =
                     config::FatLinkPolicy::LeastLoaded)
{
    const RoutingTables tables = buildRouting(topo, kind, fat_links);
    const auto edges =
        reference::channelDependencyEdges(topo, tables, escape_only);
    const int num_nodes =
        static_cast<int>(topo.channels().size()) * tables.vcClasses;
    EXPECT_TRUE(reference::acyclic(num_nodes, edges))
        << "kind=" << config::toString(kind)
        << " escape_only=" << escape_only;
}

TEST(Deadlock, DimensionOrderCdgIsAcyclic)
{
    expectAcyclicCdg(Topology::mesh(4, 4, 1),
                     config::RoutingKind::DimensionOrder, false);
    expectAcyclicCdg(Topology::mesh(8, 8, 1),
                     config::RoutingKind::DimensionOrder, false);
    expectAcyclicCdg(Topology::torus(4, 4, 1),
                     config::RoutingKind::DimensionOrder, false);
    expectAcyclicCdg(Topology::torus(8, 8, 1),
                     config::RoutingKind::DimensionOrder, false);
    expectAcyclicCdg(Topology::torus(3, 5, 2),
                     config::RoutingKind::DimensionOrder, false);
    expectAcyclicCdg(Topology::clos(4, 4, 16),
                     config::RoutingKind::DimensionOrder, false);
    expectAcyclicCdg(Topology::singleSwitch(8),
                     config::RoutingKind::DimensionOrder, false);
    for (const config::FatLinkPolicy policy : kFatLinkPolicies) {
        SCOPED_TRACE(config::toString(policy));
        expectAcyclicCdg(Topology::fatMesh(2, 2, 2, 4),
                         config::RoutingKind::DimensionOrder, false,
                         policy);
        expectAcyclicCdg(Topology::fatMesh(4, 2, 2, 4),
                         config::RoutingKind::DimensionOrder, false,
                         policy);
    }
}

TEST(Deadlock, UpDownCdgIsAcyclic)
{
    expectAcyclicCdg(Topology::mesh(4, 4, 1),
                     config::RoutingKind::UpDown, false);
    expectAcyclicCdg(Topology::torus(4, 4, 1),
                     config::RoutingKind::UpDown, false);
    expectAcyclicCdg(Topology::torus(8, 8, 1),
                     config::RoutingKind::UpDown, false);
    expectAcyclicCdg(Topology::clos(4, 4, 16),
                     config::RoutingKind::UpDown, false);
    expectAcyclicCdg(Topology::clos(2, 2, 8),
                     config::RoutingKind::UpDown, false);
}

TEST(Deadlock, AdaptiveEscapeCdgIsAcyclic)
{
    // Proves the direct escape dependencies acyclic, and no more:
    // the indirect and cross dependencies of Duato's extended CDG
    // are not built. The escape-only graph suffices only because
    // allocation waits happen on escape candidates alone - the
    // router takes an adaptive VC only when it is unallocated and
    // drained downstream (RouterTest.AdaptiveCandidateMustBeDrained-
    // Downstream) - and the saturation soak (test_deadlock.cc)
    // checks the whole policy in the simulator.
    expectAcyclicCdg(Topology::mesh(4, 4, 1),
                     config::RoutingKind::Adaptive, true);
    expectAcyclicCdg(Topology::mesh(8, 8, 1),
                     config::RoutingKind::Adaptive, true);
    expectAcyclicCdg(Topology::torus(4, 4, 1),
                     config::RoutingKind::Adaptive, true);
    expectAcyclicCdg(Topology::torus(8, 8, 1),
                     config::RoutingKind::Adaptive, true);
    expectAcyclicCdg(Topology::clos(4, 4, 16),
                     config::RoutingKind::Adaptive, true);
}

TEST(Deadlock, AdaptiveAlwaysHasAnEscapeCandidate)
{
    for (const Topology& topo :
         {Topology::mesh(4, 4, 1), Topology::torus(4, 4, 1),
          Topology::clos(4, 4, 8)}) {
        const RoutingTables tables =
            buildRouting(topo, config::RoutingKind::Adaptive);
        EXPECT_TRUE(tables.adaptive);
        for (int r = 0; r < topo.numRouters(); ++r) {
            for (int dst = 0; dst < topo.numNodes(); ++dst) {
                const router::RouteCandidates& rc =
                    tables.perRouter[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(dst)];
                if (rc.count == 0)
                    continue; // Spine row toward itself is unused.
                ASSERT_GE(rc.count, 1);
                ASSERT_LE(rc.count, 4);
                // The escape (last) candidate's VC class must be an
                // escape class (below the adaptive top class) on
                // multi-class grids, so allocation waits land on the
                // acyclic subnetwork.
                if (tables.vcClasses > 1) {
                    EXPECT_LT(
                        rc.vcClasses[static_cast<std::size_t>(
                            rc.count - 1)],
                        tables.vcClasses - 1);
                }
            }
        }
    }
}

TEST(Deadlock, TorusWithoutDatelineClassesIsDetectedCyclic)
{
    // Negative control for the detector: squeeze the torus
    // dimension-order tables onto a single VC class. The wrap
    // channels then close each ring's dependency cycle, and
    // acyclic() must say so.
    const Topology topo = Topology::torus(4, 4, 1);
    RoutingTables tables =
        buildRouting(topo, config::RoutingKind::DimensionOrder);
    ASSERT_EQ(tables.vcClasses, 2);
    tables.vcClasses = 1;
    for (router::RouteTable& table : tables.perRouter) {
        for (router::RouteCandidates& rc : table) {
            for (std::size_t i = 0; i < 4; ++i)
                rc.vcClasses[i] = 0;
        }
    }
    const auto edges =
        reference::channelDependencyEdges(topo, tables, false);
    EXPECT_FALSE(reference::acyclic(
        static_cast<int>(topo.channels().size()), edges));
}

TEST(Deadlock, VcClassCountsMatchThePolicyContract)
{
    const Topology mesh = Topology::mesh(4, 4, 1);
    const Topology torus = Topology::torus(4, 4, 1);
    const Topology clos = Topology::clos(4, 4, 8);
    using K = config::RoutingKind;
    EXPECT_EQ(buildRouting(mesh, K::DimensionOrder).vcClasses, 1);
    EXPECT_EQ(buildRouting(torus, K::DimensionOrder).vcClasses, 2);
    EXPECT_EQ(buildRouting(mesh, K::Adaptive).vcClasses, 2);
    EXPECT_EQ(buildRouting(torus, K::Adaptive).vcClasses, 3);
    EXPECT_EQ(buildRouting(clos, K::DimensionOrder).vcClasses, 1);
    EXPECT_EQ(buildRouting(clos, K::UpDown).vcClasses, 1);
    EXPECT_EQ(buildRouting(clos, K::Adaptive).vcClasses, 1);
    EXPECT_EQ(buildRouting(mesh, K::UpDown).vcClasses, 1);
}

} // namespace
