/**
 * @file
 * Unit tests for the network-calculus subsystem: curve arithmetic
 * against hand-computed fixtures, envelope construction, the route
 * model, the oracle's structural properties, and the v3
 * campaign-artifact round trip.
 *
 * The end-to-end soundness check (simulated worst-case delay <=
 * analytic bound across paper operating points) lives in the
 * separate, slower mediaworm_calculus_tests executable (ctest label
 * "calculus").
 */

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "calculus/curves.hh"
#include "calculus/oracle.hh"
#include "calculus/route_model.hh"
#include "campaign/artifact.hh"
#include "core/experiment.hh"
#include "reference_json.hh"
#include "sim/random.hh"
#include "traffic/traffic_mix.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::calculus;

/** The (src, dst) route through a one-off model. */
Route
routeOf(const config::RouterConfig& router,
        const config::NetworkConfig& net, int src, int dst)
{
    return RouteModel(router, net).routeOf(src, dst);
}

/** Router hops on the (src, dst) path, through a one-off model. */
int
routerHops(const config::NetworkConfig& net, int src, int dst)
{
    return RouteModel(config::RouterConfig{}, net).routerHops(src, dst);
}

// --------------------------------------------------------------
// Curve arithmetic, hand-computed.
// --------------------------------------------------------------

TEST(Curves, AggregateAddsSigmaAndRho)
{
    const ArrivalCurve sum =
        aggregate({10.0, 2.0}, {5.0, 0.5});
    EXPECT_DOUBLE_EQ(sum.sigmaFlits, 15.0);
    EXPECT_DOUBLE_EQ(sum.rhoFlitsPerUs, 2.5);
    EXPECT_DOUBLE_EQ(sum.at(4.0), 25.0);
}

TEST(Curves, ConvolveIsMinRateSumLatency)
{
    const ServiceCurve tandem =
        convolve({4.0, 1.5}, {6.0, 0.5});
    EXPECT_DOUBLE_EQ(tandem.rateFlitsPerUs, 4.0);
    EXPECT_DOUBLE_EQ(tandem.latencyUs, 2.0);

    // No guarantee anywhere on the path means none end to end.
    EXPECT_FALSE(convolve({4.0, 1.5}, ServiceCurve::none())
                     .guarantees());
    EXPECT_FALSE(convolve(ServiceCurve::none(), {4.0, 1.5})
                     .guarantees());
}

TEST(Curves, ResidualHandComputed)
{
    // C = 10 flits/us shared with cross traffic (5 flits, 4
    // flits/us): leftover rate 6, latency 5/6 plus the 0.5 us fixed
    // pipeline.
    const ServiceCurve left = residual(10.0, {5.0, 4.0}, 0.5);
    EXPECT_DOUBLE_EQ(left.rateFlitsPerUs, 6.0);
    EXPECT_DOUBLE_EQ(left.latencyUs, 5.0 / 6.0 + 0.5);
}

TEST(Curves, ResidualSaturatedIsNone)
{
    EXPECT_FALSE(residual(10.0, {1.0, 10.0}, 0.0).guarantees());
    EXPECT_FALSE(residual(10.0, {1.0, 12.0}, 0.0).guarantees());
}

TEST(Curves, SingleHopDelayBound)
{
    // D = T + sigma / R = 1.5 + 12/4.
    EXPECT_DOUBLE_EQ(delayBoundUs({12.0, 2.0}, {4.0, 1.5}), 4.5);
    // rho > R: the queue grows without bound.
    EXPECT_EQ(delayBoundUs({12.0, 5.0}, {4.0, 1.5}), kUnbounded);
    EXPECT_EQ(delayBoundUs({12.0, 2.0}, ServiceCurve::none()),
              kUnbounded);
}

TEST(Curves, TwoHopPaysTheBurstOnlyOnce)
{
    // Convolving first then bounding charges sigma/R once; bounding
    // each hop separately charges it twice. Both are valid but the
    // convolved bound is strictly better here:
    //   e2e:     D = (1.5 + 0.5) + 12/4          = 5
    //   per-hop: D = (1.5 + 12/4) + (0.5 + 12/6) = 7
    const ArrivalCurve flow{12.0, 2.0};
    const ServiceCurve hop1{4.0, 1.5};
    const ServiceCurve hop2{6.0, 0.5};
    const double e2e = delayBoundUs(flow, convolve(hop1, hop2));
    const double per_hop =
        delayBoundUs(flow, hop1) + delayBoundUs(flow, hop2);
    EXPECT_DOUBLE_EQ(e2e, 5.0);
    EXPECT_DOUBLE_EQ(per_hop, 7.0);
    EXPECT_LT(e2e, per_hop);
}

TEST(Curves, BacklogBound)
{
    // B = sigma + rho * T = 12 + 2 * 1.5.
    EXPECT_DOUBLE_EQ(backlogBoundFlits({12.0, 2.0}, {4.0, 1.5}),
                     15.0);
    EXPECT_EQ(backlogBoundFlits({12.0, 5.0}, {4.0, 1.5}),
              kUnbounded);
}

// --------------------------------------------------------------
// Source envelopes.
// --------------------------------------------------------------

TEST(Envelope, CbrRateIsTheMeanRate)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.realTimeKind = config::RealTimeKind::Cbr;
    const StreamEnvelope env =
        rtStreamEnvelope(router, traffic);
    // CBR frames are exactly the mean size: auto margin is zero.
    EXPECT_DOUBLE_EQ(env.curve.rhoFlitsPerUs,
                     env.meanRateFlitsPerUs);
    EXPECT_GE(env.curve.sigmaFlits, env.maxMessageFlits);
    EXPECT_GT(env.meanRateFlitsPerUs, 0.0);
}

TEST(Envelope, VbrCarriesMarginAndLargerBurst)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.realTimeKind = config::RealTimeKind::Cbr;
    const StreamEnvelope cbr =
        rtStreamEnvelope(router, traffic);
    traffic.realTimeKind = config::RealTimeKind::Vbr;
    const StreamEnvelope vbr =
        rtStreamEnvelope(router, traffic);

    EXPECT_GT(vbr.curve.rhoFlitsPerUs, cbr.curve.rhoFlitsPerUs);
    EXPECT_GT(vbr.curve.sigmaFlits, cbr.curve.sigmaFlits);
}

TEST(Envelope, SigmaGrowsWithBurstSigmas)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.realTimeKind = config::RealTimeKind::Vbr;
    // The burst covers the largest contract frame, mean + kBurstSigmas
    // standard deviations: 16666 + 4 x 3333 = 29998 bytes, which is
    // 395 messages of 19 four-byte payload flits.
    EXPECT_DOUBLE_EQ(kBurstSigmas, 4.0);
    EXPECT_DOUBLE_EQ(rtStreamEnvelope(router, traffic).curve.sigmaFlits,
                     395.0 * traffic.messageFlits);
    config::TrafficConfig wide = traffic;
    wide.frameBytesStddev = 2.0 * traffic.frameBytesStddev;
    EXPECT_LT(rtStreamEnvelope(router, traffic).curve.sigmaFlits,
              rtStreamEnvelope(router, wide).curve.sigmaFlits);
}

// --------------------------------------------------------------
// Route model.
// --------------------------------------------------------------

TEST(RouteModel, SingleSwitchRouteHasTwoPoints)
{
    config::RouterConfig router;
    config::NetworkConfig net;
    const Route route = routeOf(router, net, 0, 5);
    ASSERT_EQ(route.size(), 2u);
    EXPECT_EQ(route[0].key, -1); // injection point of node 0
    EXPECT_EQ(route[0].discipline, config::SchedulerKind::Fifo);
    EXPECT_EQ(route[1].discipline, router.scheduler);
    const double cap = linkCapacityFlitsPerUs(router);
    EXPECT_DOUBLE_EQ(route[0].capacityFlitsPerUs, cap);
    EXPECT_DOUBLE_EQ(route[1].capacityFlitsPerUs, cap);
    EXPECT_EQ(routerHops(net, 0, 5), 1);
}

TEST(RouteModel, StreamsToSameDestinationShareTheOutputPoint)
{
    config::RouterConfig router;
    config::NetworkConfig net;
    const Route a = routeOf(router, net, 0, 5);
    const Route b = routeOf(router, net, 1, 5);
    const Route c = routeOf(router, net, 0, 6);
    EXPECT_EQ(a.back().key, b.back().key);
    EXPECT_NE(a.back().key, c.back().key);
    EXPECT_NE(a.front().key, b.front().key);
}

TEST(RouteModel, FatMeshRouteLengthMatchesManhattanDistance)
{
    config::RouterConfig router;
    const double cap = linkCapacityFlitsPerUs(router);
    // Keys are switch * 4096 + output port. Per-switch port map of
    // the 2x2 fat-2 mesh: endpoints 0-3, then the two fat links of
    // each present direction in E/W/S/N order (switch 0: East 4-5,
    // South 6-7; switch 1: West 4-5, South 6-7).
    for (const config::FatLinkPolicy policy :
         {config::FatLinkPolicy::LeastLoaded,
          config::FatLinkPolicy::Static,
          config::FatLinkPolicy::Random}) {
        SCOPED_TRACE(config::toString(policy));
        config::NetworkConfig net;
        net.topology = config::TopologyKind::FatMesh;
        net.fatLinkPolicy = policy;
        net.validate(router.numPorts);
        // 2x2 mesh, 4 endpoints per switch: node 0 is on switch 0,
        // node 15 on switch 3 (diagonal, Manhattan distance 2).
        EXPECT_EQ(routerHops(net, 0, 1), 1);  // same switch
        EXPECT_EQ(routerHops(net, 0, 7), 2);  // adjacent switch
        EXPECT_EQ(routerHops(net, 0, 15), 3); // diagonal
        // Route = injection + one output point per traversed router.
        EXPECT_EQ(routeOf(router, net, 0, 1).size(), 2u);

        // Static picks link base + dst % fat, one link's rate; the
        // load-spreading policies aggregate the fat channel into one
        // fat x rate server keyed by its first port.
        const bool is_static =
            policy == config::FatLinkPolicy::Static;
        const double fat_cap = is_static ? cap : 2.0 * cap;
        const struct
        {
            int dst;
            std::vector<std::pair<int, double>> points;
        } paths[] = {
            {7,
             {{-1, cap},
              {is_static ? 5 : 4, fat_cap},
              {4096 + 3, cap}}},
            {15,
             {{-1, cap},
              {is_static ? 5 : 4, fat_cap},
              {4096 + (is_static ? 7 : 6), fat_cap},
              {3 * 4096 + 3, cap}}},
        };
        for (const auto& path : paths) {
            const Route route = routeOf(router, net, 0, path.dst);
            ASSERT_EQ(route.size(), path.points.size()) << path.dst;
            for (std::size_t h = 0; h < route.size(); ++h) {
                EXPECT_EQ(route[h].key, path.points[h].first)
                    << "0->" << path.dst << " point " << h;
                EXPECT_DOUBLE_EQ(route[h].capacityFlitsPerUs,
                                 path.points[h].second)
                    << "0->" << path.dst << " point " << h;
            }
        }
    }
}

TEST(RouteModel, PointIndexIsDenseAndOneToOneWithKey)
{
    // The index comes from the topology's port layout, not the
    // router's port count: a 4-port router config on the fat mesh
    // (whose switches use 8 ports) must neither alias two points nor
    // number one past numPoints().
    for (const int ports : {4, 8, 16}) {
        SCOPED_TRACE(ports);
        config::RouterConfig router;
        router.numPorts = ports;
        config::NetworkConfig net;
        net.topology = config::TopologyKind::FatMesh;
        const RouteModel model(router, net);
        std::map<int, int> index_of_key;
        std::map<int, int> key_of_index;
        for (int src = 0; src < 16; ++src) {
            for (int dst = 0; dst < 16; ++dst) {
                if (src == dst)
                    continue;
                for (const ContentionPoint& cp : model.routeOf(src, dst)) {
                    ASSERT_GE(cp.index, 0);
                    ASSERT_LT(cp.index, model.numPoints());
                    EXPECT_EQ(index_of_key.emplace(cp.key, cp.index)
                                  .first->second,
                              cp.index);
                    EXPECT_EQ(key_of_index.emplace(cp.index, cp.key)
                                  .first->second,
                              cp.key);
                }
            }
        }
    }
}

TEST(RouteModel, RouterHopsFollowEveryRoutingPolicy)
{
    // Adaptive routing has no static path, but its hop count is
    // still the minimal (escape) route's.
    config::NetworkConfig mesh;
    mesh.topology = config::TopologyKind::Mesh;
    mesh.meshWidth = 4;
    mesh.meshHeight = 4;
    mesh.endpointsPerSwitch = 1;
    mesh.routing = config::RoutingKind::Adaptive;
    EXPECT_EQ(routerHops(mesh, 0, 1), 2);
    EXPECT_EQ(routerHops(mesh, 0, 5), 3);
    EXPECT_EQ(routerHops(mesh, 0, 15), 7);

    config::NetworkConfig torus = mesh;
    torus.topology = config::TopologyKind::Torus;
    EXPECT_EQ(routerHops(torus, 0, 3), 2);   // one wrap hop
    EXPECT_EQ(routerHops(torus, 0, 10), 5);  // 2 + 2 ring hops
    EXPECT_EQ(routerHops(torus, 0, 15), 3);  // both wraps

    // clos(m=4,n=4,r=8): leaf, spine, leaf under every policy.
    for (const config::RoutingKind kind :
         {config::RoutingKind::DimensionOrder,
          config::RoutingKind::UpDown,
          config::RoutingKind::Adaptive}) {
        SCOPED_TRACE(config::toString(kind));
        config::NetworkConfig clos;
        clos.topology = config::TopologyKind::Clos;
        clos.routing = kind;
        EXPECT_EQ(routerHops(clos, 0, 3), 1);
        EXPECT_EQ(routerHops(clos, 0, 4), 3);
        EXPECT_EQ(routerHops(clos, 0, 31), 3);
    }
}

TEST(RouteModel, RouterHopsCountTheWalkedRoute)
{
    // routerHops and routeOf walk the same tables: one contention
    // point per router, plus injection. (Up-down on the torus takes
    // non-minimal tree routes, so a ring-distance count is wrong.)
    config::RouterConfig router;
    router.numPorts = 10;
    config::NetworkConfig fat_mesh;
    fat_mesh.topology = config::TopologyKind::FatMesh;
    fat_mesh.meshWidth = 4;
    config::NetworkConfig torus;
    torus.topology = config::TopologyKind::Torus;
    torus.meshWidth = 4;
    torus.meshHeight = 4;
    torus.endpointsPerSwitch = 1;
    config::NetworkConfig mesh = torus;
    mesh.topology = config::TopologyKind::Mesh;
    config::NetworkConfig clos;
    clos.topology = config::TopologyKind::Clos;

    std::vector<config::NetworkConfig> nets{config::NetworkConfig{},
                                            fat_mesh};
    for (config::NetworkConfig net : {mesh, torus, clos}) {
        for (const config::RoutingKind kind :
             {config::RoutingKind::DimensionOrder,
              config::RoutingKind::UpDown}) {
            net.routing = kind;
            nets.push_back(net);
        }
    }
    for (const config::NetworkConfig& net : nets) {
        SCOPED_TRACE(net.describe());
        net.validate(router.numPorts);
        const RouteModel model(router, net);
        const int nodes = model.numNodes();
        for (int src = 0; src < nodes; ++src) {
            for (int dst = 0; dst < nodes; ++dst) {
                if (src == dst)
                    continue;
                ASSERT_EQ(static_cast<std::size_t>(
                              model.routerHops(src, dst)) + 1,
                          model.routeOf(src, dst).size())
                    << src << "->" << dst;
            }
        }
    }
}

// --------------------------------------------------------------
// Oracle structural properties.
// --------------------------------------------------------------

/** Plans the mix exactly as runExperiment(seed) would. */
traffic::MixPlan
planLike(const config::RouterConfig& router,
         const config::TrafficConfig& traffic, int num_nodes,
         std::uint64_t seed)
{
    sim::Rng root(seed);
    sim::Rng net_rng = root.split();
    (void)net_rng;
    sim::Rng mix_rng = root.split();
    return traffic::planMix(router, traffic, num_nodes, mix_rng);
}

TEST(Oracle, AdmissibleVirtualClockMixIsFullyBounded)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.inputLoad = 0.8;
    traffic.realTimeFraction = 0.8;
    const traffic::MixPlan plan =
        planLike(router, traffic, router.numPorts, 1);
    ASSERT_FALSE(plan.streams.empty());

    OracleConfig oracle;
    oracle.enabled = true;
    const BoundsReport report = computeBounds(
        router, traffic, config::NetworkConfig{}, plan.streams,
        oracle);
    ASSERT_EQ(report.streams.size(), plan.streams.size());
    EXPECT_TRUE(report.allBounded());
    EXPECT_GT(report.maxBoundUs, 0.0);
    // Streams are sorted and addressable by id.
    for (std::size_t i = 1; i < report.streams.size(); ++i) {
        EXPECT_LT(report.streams[i - 1].stream.value(),
                  report.streams[i].stream.value());
    }
    const StreamBound* found = report.find(plan.streams[0].id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->stream, plan.streams[0].id);
    EXPECT_EQ(report.find(sim::StreamId(999999)), nullptr);
}

TEST(Oracle, SaturatedFifoLoadHasNoFiniteBound)
{
    config::RouterConfig router;
    router.scheduler = config::SchedulerKind::Fifo;
    config::TrafficConfig traffic;
    traffic.inputLoad = 1.0;
    traffic.realTimeFraction = 0.8;
    const traffic::MixPlan plan =
        planLike(router, traffic, router.numPorts, 1);

    const BoundsReport report = computeBounds(
        router, traffic, config::NetworkConfig{}, plan.streams);
    EXPECT_GT(report.unboundedStreams, 0);
    EXPECT_FALSE(report.allBounded());
}

TEST(Oracle, CompetingStreamRaisesTheBound)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    const sim::Tick vtick = traffic.streamVtick(router.flitSizeBits);

    auto stream = [&](int id, int src, int dst) {
        traffic::Stream s;
        s.id = sim::StreamId(id);
        s.src = sim::NodeId(src);
        s.dst = sim::NodeId(dst);
        s.cls = router::TrafficClass::Vbr;
        s.vcLane = 0;
        s.vtick = vtick;
        s.frameInterval = traffic.frameInterval;
        return s;
    };

    // Suppress best-effort so only the crafted streams interfere.
    traffic.realTimeFraction = 1.0;
    config::NetworkConfig net;
    const std::vector<traffic::Stream> alone{stream(0, 0, 1)};
    const std::vector<traffic::Stream> contended{
        stream(0, 0, 1), stream(1, 2, 1), stream(2, 3, 1)};

    const BoundsReport solo =
        computeBounds(router, traffic, net, alone);
    const BoundsReport shared =
        computeBounds(router, traffic, net, contended);
    ASSERT_TRUE(solo.streams[0].bounded);
    ASSERT_TRUE(shared.streams[0].bounded);
    // The competitors share stream 0's destination output port.
    EXPECT_GT(shared.streams[0].boundUs, solo.streams[0].boundUs);
}

TEST(Oracle, WiderBurstContractLoosensBounds)
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    traffic.inputLoad = 0.6;
    const traffic::MixPlan plan =
        planLike(router, traffic, router.numPorts, 1);

    // A larger frame-size deviation widens the 4-sigma burst.
    config::TrafficConfig spread = traffic;
    spread.frameBytesStddev = 2.0 * traffic.frameBytesStddev;
    const BoundsReport tight = computeBounds(
        router, traffic, config::NetworkConfig{}, plan.streams);
    const BoundsReport loose = computeBounds(
        router, spread, config::NetworkConfig{}, plan.streams);
    ASSERT_EQ(tight.streams.size(), loose.streams.size());
    for (std::size_t i = 0; i < tight.streams.size(); ++i) {
        if (!tight.streams[i].bounded)
            continue;
        EXPECT_LE(tight.streams[i].boundUs,
                  loose.streams[i].boundUs);
    }
}

TEST(Oracle, DeterministicHashUnchangedByTheOracle)
{
    core::ExperimentConfig cfg;
    cfg.traffic.warmupFrames = 0;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.02;

    core::ExperimentConfig with = cfg;
    with.calculus.enabled = true;

    const core::ExperimentResult off = core::runExperiment(cfg);
    const core::ExperimentResult on = core::runExperiment(with);
    EXPECT_EQ(off.modelDigest(), on.modelDigest());
    EXPECT_EQ(off.kernelDigest(), on.kernelDigest());
    EXPECT_EQ(off.bounds, nullptr);
    ASSERT_NE(on.bounds, nullptr);
    EXPECT_EQ(on.bounds->streams.size(),
              static_cast<std::size_t>(on.rtStreams));
}

// --------------------------------------------------------------
// Campaign artifact: schema v3 round trip, v2 compatibility,
// parser failure modes.
// --------------------------------------------------------------

TEST(ArtifactV3, RoundTripsThroughTheParser)
{
    core::ExperimentConfig base;
    base.traffic.warmupFrames = 0;
    base.traffic.measuredFrames = 2;
    base.timeScale = 0.02;
    base.obs.telemetry = true;
    base.calculus.enabled = true;
    base.traffic.inputLoad = 0.5;

    campaign::Campaign camp;
    camp.addPoint("load=0.50", base);
    camp.run();

    campaign::ArtifactOptions options;
    options.name = "round-trip";
    options.includeTiming = false;
    const std::string text = campaign::toJson(camp, options);
    const reference::JsonParseResult parsed =
        reference::parseJson(text);
    ASSERT_TRUE(parsed.ok) << parsed.error << " at byte "
                           << parsed.position;

    const reference::JsonValue& doc = parsed.value;
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->string,
              campaign::kArtifactSchema);

    const reference::JsonValue* points = doc.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_TRUE(points->isArray());
    ASSERT_EQ(points->array.size(), 1u);

    const reference::JsonValue& point = points->array[0];
    const reference::JsonValue* bounds = point.find("bounds");
    ASSERT_NE(bounds, nullptr) << "v3 point lacks a bounds member";
    const reference::JsonValue* per_stream =
        bounds->find("per_stream");
    ASSERT_NE(per_stream, nullptr);
    ASSERT_TRUE(per_stream->isArray());
    EXPECT_EQ(static_cast<double>(per_stream->array.size()),
              bounds->find("streams")->number);

    // With telemetry present every row carries the observed worst
    // delay, and the observed value respects the bound.
    for (const reference::JsonValue& row : per_stream->array) {
        const reference::JsonValue* bound = row.find("bound_us");
        const reference::JsonValue* seen =
            row.find("observed_worst_us");
        ASSERT_NE(bound, nullptr);
        ASSERT_NE(seen, nullptr);
        if (!bound->isNull()) {
            EXPECT_LE(seen->number, bound->number);
        }
    }
}

TEST(ArtifactV2, LegacyDocumentStillParses)
{
    // A minimal v2 document (no "bounds" member): readers address
    // members by name, so the v3 reader accepts it unchanged.
    const std::string v2 = R"({
  "schema": "mediaworm-campaign-v2",
  "name": "legacy",
  "root_seed": 1,
  "replications": 1,
  "points": [
    {
      "label": "load=0.80",
      "metrics": {
        "mean_interval_norm_ms":
          {"mean": 33.0, "stddev": 0, "ci95": 0, "n": 1}
      },
      "counts": {"rt_streams": 8},
      "telemetry": {"window_ms": 13.2, "streams": []}
    }
  ]
})";
    const reference::JsonParseResult parsed = reference::parseJson(v2);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const reference::JsonValue& doc = parsed.value;
    EXPECT_EQ(doc.find("schema")->string, "mediaworm-campaign-v2");
    const reference::JsonValue& point =
        doc.find("points")->array[0];
    EXPECT_EQ(point.find("bounds"), nullptr);
    EXPECT_DOUBLE_EQ(
        point.find("metrics")
            ->find("mean_interval_norm_ms")
            ->find("mean")
            ->number,
        33.0);
}

TEST(JsonParser, ReportsMalformedDocuments)
{
    EXPECT_FALSE(reference::parseJson("").ok);
    EXPECT_FALSE(reference::parseJson("{").ok);
    EXPECT_FALSE(reference::parseJson(R"({"a":})").ok);
    EXPECT_FALSE(reference::parseJson(R"({"a":1} trailing)").ok);
    EXPECT_FALSE(reference::parseJson(R"(["unterminated)").ok);
    EXPECT_FALSE(reference::parseJson(R"(["bad \x escape"])").ok);
    EXPECT_FALSE(reference::parseJson("1.2.3").ok);
    EXPECT_FALSE(reference::parseJson("[1,]").ok);

    // Depth guard: 80 nested arrays exceed the 64-scope limit.
    std::string deep;
    for (int i = 0; i < 80; ++i)
        deep += '[';
    EXPECT_FALSE(reference::parseJson(deep).ok);

    const reference::JsonParseResult bad =
        reference::parseJson(R"({"a": 1,})");
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_GT(bad.position, 0u);
}

TEST(JsonParser, AcceptsWriterOutputConstructs)
{
    const reference::JsonParseResult parsed = reference::parseJson(
        R"({"null": null, "t": true, "f": false,)"
        R"( "num": -1.25e3, "esc": "a\n\"bA",)"
        R"( "arr": [1, 2, 3], "empty": {}, "earr": []})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const reference::JsonValue& doc = parsed.value;
    EXPECT_TRUE(doc.find("null")->isNull());
    EXPECT_TRUE(doc.find("t")->boolean);
    EXPECT_FALSE(doc.find("f")->boolean);
    EXPECT_DOUBLE_EQ(doc.find("num")->number, -1250.0);
    EXPECT_EQ(doc.find("esc")->string, "a\n\"bA");
    EXPECT_EQ(doc.find("arr")->array.size(), 3u);
    EXPECT_TRUE(doc.find("empty")->isObject());
    EXPECT_TRUE(doc.find("earr")->array.empty());
}

} // namespace
