/**
 * @file
 * Differential tests of the delay oracle against the quadratic
 * reference (tests/reference_oracle.*), and the oracle's
 * converge-or-refuse rule on cyclic routes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "calculus/oracle.hh"
#include "network/topology.hh"
#include "reference_oracle.hh"
#include "sim/random.hh"
#include "traffic/traffic_mix.hh"

namespace {

using namespace mediaworm;
using calculus::BoundsReport;

/** One oracle input: the workload as run (time-scaled) and its
 *  planned streams. */
struct OracleCase
{
    std::string name;
    config::RouterConfig router;
    config::TrafficConfig traffic;
    config::NetworkConfig net;
    std::vector<traffic::Stream> streams;
};

/** Scales @p traffic and plans the mix exactly as runExperiment()
 *  does for @p seed. */
OracleCase
makeCase(std::string name, const config::RouterConfig& router,
         config::TrafficConfig traffic, const config::NetworkConfig& net,
         double time_scale, std::uint64_t seed = 1)
{
    traffic = traffic.scaled(time_scale);
    sim::Rng root(seed);
    sim::Rng net_rng = root.split();
    (void)net_rng;
    sim::Rng mix_rng = root.split();
    OracleCase c{std::move(name), router, traffic, net, {}};
    c.streams =
        traffic::planMix(router, traffic,
                         network::Topology::build(net, router.numPorts)
                             .numNodes(),
                         mix_rng)
            .streams;
    return c;
}

config::TrafficConfig
trafficAt(double load, double rt_fraction)
{
    config::TrafficConfig traffic;
    traffic.inputLoad = load;
    traffic.realTimeFraction = rt_fraction;
    return traffic;
}

config::NetworkConfig
grid(config::TopologyKind topology, int side)
{
    config::NetworkConfig net;
    net.topology = topology;
    net.routing = config::RoutingKind::DimensionOrder;
    net.meshWidth = side;
    net.meshHeight = side;
    net.endpointsPerSwitch = 1;
    return net;
}

/** Largest relative deviation seen across every differential case. */
double g_maxDeviation = 0.0;

/**
 * Runs both oracles on @p c and requires the same verdicts: equal
 * bounded flags and unbounded counts, finite bounds within 1e-9
 * relative. The reference must have converged, or the comparison
 * would hold the new oracle to a still-moving iterate.
 */
void
expectSameBounds(const OracleCase& c,
                 const calculus::OracleConfig& oracle = {})
{
    SCOPED_TRACE(c.name);
    ASSERT_FALSE(c.streams.empty());
    const reference::ReferenceBounds ref = reference::computeBounds(
        c.router, c.traffic, c.net, c.streams, oracle);
    ASSERT_TRUE(ref.converged)
        << "reference still moving after " << ref.passes << " passes";
    const BoundsReport got = calculus::computeBounds(
        c.router, c.traffic, c.net, c.streams, oracle);
    ASSERT_TRUE(got.tfaConverged);

    ASSERT_EQ(got.streams.size(), ref.report.streams.size());
    EXPECT_EQ(got.unboundedStreams, ref.report.unboundedStreams);
    double deviation = 0.0;
    for (std::size_t i = 0; i < got.streams.size(); ++i) {
        const calculus::StreamBound& a = got.streams[i];
        const calculus::StreamBound& b = ref.report.streams[i];
        ASSERT_EQ(a.stream, b.stream);
        EXPECT_EQ(a.hops, b.hops);
        ASSERT_EQ(a.bounded, b.bounded) << "stream " << a.stream.value();
        if (!a.bounded)
            continue;
        const double rel =
            std::abs(a.boundUs - b.boundUs) / std::abs(b.boundUs);
        EXPECT_LE(rel, 1e-9) << "stream " << a.stream.value() << ": "
                             << a.boundUs << " vs " << b.boundUs;
        deviation = std::max(deviation, rel);
    }
    g_maxDeviation = std::max(g_maxDeviation, deviation);
    std::printf("[ oracle   ] %-28s %4zu streams, %3d unbounded, "
                "passes %d (reference %d), max rel deviation %.3g, "
                "largest so far %.3g\n",
                c.name.c_str(), got.streams.size(),
                got.unboundedStreams, got.tfaPasses, ref.passes,
                deviation, g_maxDeviation);
}

TEST(OracleReference, SingleSwitchAllDisciplinesAndLoads)
{
    const struct
    {
        const char* name;
        config::SchedulerKind kind;
    } disciplines[] = {
        {"fifo", config::SchedulerKind::Fifo},
        {"vc", config::SchedulerKind::VirtualClock},
        {"wrr", config::SchedulerKind::WeightedRoundRobin},
    };
    for (const auto& d : disciplines) {
        for (const double load : {0.3, 0.5, 0.8, 1.0}) {
            config::RouterConfig router;
            router.scheduler = d.kind;
            expectSameBounds(makeCase(
                std::string("switch ") + d.name + " load "
                    + std::to_string(load),
                router, trafficAt(load, 0.8), config::NetworkConfig{},
                0.1));
        }
    }
}

TEST(OracleReference, FatMeshAllFatLinkPolicies)
{
    const struct
    {
        const char* name;
        config::FatLinkPolicy policy;
    } policies[] = {
        {"least-loaded", config::FatLinkPolicy::LeastLoaded},
        {"static", config::FatLinkPolicy::Static},
        {"random", config::FatLinkPolicy::Random},
    };
    for (const auto& p : policies) {
        config::NetworkConfig net;
        net.topology = config::TopologyKind::FatMesh;
        net.fatLinkPolicy = p.policy;
        expectSameBounds(makeCase(std::string("fat mesh ") + p.name,
                                  config::RouterConfig{},
                                  trafficAt(0.8, 0.6), net, 0.05));
    }
}

TEST(OracleReference, MultiHopTopologies)
{
    expectSameBounds(makeCase(
        "mesh8x8 dor", config::RouterConfig{}, trafficAt(0.2, 0.8),
        grid(config::TopologyKind::Mesh, 8), 0.01));

    config::NetworkConfig clos;
    clos.topology = config::TopologyKind::Clos;
    clos.closM = 2;
    clos.closN = 2;
    clos.closR = 4;
    expectSameBounds(makeCase("clos 2/2/4", config::RouterConfig{},
                              trafficAt(0.4, 0.8), clos, 0.1));

    // The torus rings are cyclic: the reference's default pass
    // count (max route length + 1) stops short of the fixed point.
    calculus::OracleConfig enough;
    enough.tfaPasses = 100;
    expectSameBounds(makeCase("torus4x4 dor", config::RouterConfig{},
                              trafficAt(0.4, 0.8),
                              grid(config::TopologyKind::Torus, 4), 0.1),
                     enough);
}

TEST(OracleReference, GrowingSetSlaDecisionsMatch)
{
    // Grow a fat-mesh stream set one planned stream at a time, keeping
    // a stream only if every bound of the tentative set stays within
    // an SLA that admits some streams and rejects others. Both oracles
    // must reach the same verdict on every tentative set.
    config::NetworkConfig net;
    net.topology = config::TopologyKind::FatMesh;
    OracleCase c = makeCase("fat mesh growing set",
                            config::RouterConfig{}, trafficAt(0.8, 0.6),
                            net, 0.05);
    c.streams.resize(std::min<std::size_t>(c.streams.size(), 96));
    const BoundsReport all =
        calculus::computeBounds(c.router, c.traffic, c.net, c.streams);
    ASSERT_TRUE(all.allBounded());
    std::vector<double> bounds;
    for (const calculus::StreamBound& b : all.streams)
        bounds.push_back(b.boundUs);
    std::sort(bounds.begin(), bounds.end());
    const double sla_us = bounds[bounds.size() / 2];

    const auto meets = [sla_us](const BoundsReport& r) {
        return r.allBounded() && r.maxBoundUs <= sla_us;
    };
    std::vector<traffic::Stream> kept;
    int keeps = 0;
    int rejects = 0;
    for (const traffic::Stream& s : c.streams) {
        std::vector<traffic::Stream> tentative = kept;
        tentative.push_back(s);
        const reference::ReferenceBounds ref = reference::computeBounds(
            c.router, c.traffic, c.net, tentative);
        ASSERT_TRUE(ref.converged);
        const bool ok = meets(calculus::computeBounds(
            c.router, c.traffic, c.net, tentative));
        ASSERT_EQ(ok, meets(ref.report)) << "stream " << s.id.value();
        if (ok) {
            kept = std::move(tentative);
            ++keeps;
        } else {
            ++rejects;
        }
    }
    std::printf("[ oracle   ] SLA %.1f us: %d kept, %d rejected\n",
                sla_us, keeps, rejects);
    EXPECT_GT(keeps, 0);
    EXPECT_GT(rejects, 0);
}

/**
 * DOR rings make torus routes cyclic, so TFA need not converge. At
 * loads where the old fixed pass count reported a still-moving or
 * diverging iterate, the oracle must either stop at an exact fixed
 * point (another pass changes nothing, so a larger cap gives the
 * same report) or report every stream unbounded.
 */
TEST(OracleReference, CyclicTorusConvergesOrRefuses)
{
    for (const double load : {0.2, 0.3}) {
        const OracleCase c = makeCase(
            "torus8x8 dor load " + std::to_string(load),
            config::RouterConfig{}, trafficAt(load, 0.8),
            grid(config::TopologyKind::Torus, 8), 0.01);
        SCOPED_TRACE(c.name);
        const BoundsReport got =
            calculus::computeBounds(c.router, c.traffic, c.net, c.streams);
        std::printf("[ oracle   ] %s: %s after %d passes, %d of %zu "
                    "unbounded, worst %.1f us\n",
                    c.name.c_str(),
                    got.tfaConverged ? "converged" : "still moving",
                    got.tfaPasses, got.unboundedStreams,
                    got.streams.size(), got.maxBoundUs);
        if (!got.tfaConverged) {
            EXPECT_EQ(got.tfaPasses, calculus::kDefaultTfaPasses);
            EXPECT_EQ(got.unboundedStreams,
                      static_cast<int>(got.streams.size()));
            EXPECT_EQ(got.maxBoundUs, 0.0);
            continue;
        }
        calculus::OracleConfig longer;
        longer.tfaPasses = 2 * calculus::kDefaultTfaPasses;
        const BoundsReport again = calculus::computeBounds(
            c.router, c.traffic, c.net, c.streams, longer);
        EXPECT_EQ(again.tfaPasses, got.tfaPasses);
        ASSERT_EQ(again.streams.size(), got.streams.size());
        for (std::size_t i = 0; i < got.streams.size(); ++i)
            EXPECT_EQ(again.streams[i].boundUs, got.streams[i].boundUs);
    }
}

TEST(OracleReference, PassCapReachedRefusesEveryStream)
{
    // One pass can never confirm a fixed point: its iterate has
    // moved off the all-zero start.
    config::NetworkConfig net;
    net.topology = config::TopologyKind::FatMesh;
    const OracleCase c = makeCase("fat mesh", config::RouterConfig{},
                                  trafficAt(0.8, 0.6), net, 0.05);
    calculus::OracleConfig one;
    one.tfaPasses = 1;
    const BoundsReport got = calculus::computeBounds(
        c.router, c.traffic, c.net, c.streams, one);
    EXPECT_FALSE(got.tfaConverged);
    EXPECT_EQ(got.tfaPasses, 1);
    EXPECT_FALSE(got.streams.empty());
    EXPECT_EQ(got.unboundedStreams, static_cast<int>(got.streams.size()));
    EXPECT_FALSE(got.allBounded());
}

} // namespace
