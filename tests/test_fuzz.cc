/**
 * @file
 * Randomized stress tests: storms of random messages through the
 * network under every mechanism combination, checking the system's
 * conservation laws (every flit injected is delivered exactly once,
 * every tail completes a message) and the router invariants after
 * drain. These catch interaction bugs the targeted unit tests miss.
 */

#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "network/network.hh"
#include "obs/flight_recorder.hh"
#include "sim/random.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::network;

struct FuzzParams
{
    std::uint64_t seed;
    config::CrossbarKind crossbar;
    config::SwitchingKind switching;
    config::TopologyKind topology;
};

class FuzzStorm : public testing::TestWithParam<FuzzParams>
{
};

TEST_P(FuzzStorm, RandomMessageStormConservesEverything)
{
    const FuzzParams params = GetParam();
    Simulator simulator(params.seed);
    config::RouterConfig cfg;
    cfg.numVcs = 6;
    cfg.flitBufferDepth = 16;
    cfg.crossbar = params.crossbar;
    cfg.switching = params.switching;
    config::NetworkConfig net_cfg;
    net_cfg.topology = params.topology;
    MetricsHub metrics;
    Rng net_rng = simulator.rng().split();
    Network net(simulator, cfg, net_cfg, metrics, net_rng);

    // Inject a storm: random sources, destinations, lanes, sizes and
    // classes, at random times across a 200 us window.
    Rng rng(params.seed * 77 + 3);
    const int num_nodes = net.numNodes();
    constexpr int kMessages = 400;
    std::uint64_t flits_expected = 0;
    int frames_expected = 0;

    struct PendingInjection
    {
        CallbackEvent event;
    };
    std::vector<std::unique_ptr<CallbackEvent>> events;
    for (int i = 0; i < kMessages; ++i) {
        traffic::MessageDesc desc;
        desc.stream = StreamId(i);
        const int src =
            static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(num_nodes)));
        const int draw = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(num_nodes - 1)));
        desc.dest = NodeId(draw >= src ? draw + 1 : draw);
        desc.cls = rng.bernoulli(0.7)
            ? router::TrafficClass::Vbr
            : router::TrafficClass::BestEffort;
        desc.vcLane = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.numVcs)));
        desc.vtick = desc.cls == router::TrafficClass::Vbr
            ? microseconds(static_cast<std::int64_t>(
                  1 + rng.uniformInt(16)))
            : router::kBestEffortVtick;
        // Sizes 2..16 flits (<= buffer depth for cut-through).
        desc.numFlits = static_cast<int>(2 + rng.uniformInt(15));
        desc.endOfFrame = desc.cls == router::TrafficClass::Vbr;
        if (desc.endOfFrame)
            ++frames_expected;
        flits_expected += static_cast<std::uint64_t>(desc.numFlits);

        events.push_back(std::make_unique<CallbackEvent>(
            [&net, src, desc] { net.ni(src).injectMessage(desc); }));
        simulator.schedule(*events.back(),
                           static_cast<Tick>(rng.uniformInt(
                               static_cast<std::uint64_t>(
                                   microseconds(200)))));
    }

    simulator.run(seconds(1));
    ASSERT_TRUE(simulator.queue().empty()) << "network did not drain";

    EXPECT_EQ(metrics.flitsDelivered(), flits_expected);
    EXPECT_EQ(metrics.frames().framesDelivered(),
              static_cast<std::uint64_t>(frames_expected));
    EXPECT_EQ(net.totalBacklogFlits(), 0u);
    std::uint64_t injected = 0;
    for (int node = 0; node < num_nodes; ++node)
        injected += net.ni(node).flitsInjected();
    EXPECT_EQ(injected, flits_expected);
    for (int r = 0; r < net.numRouters(); ++r)
        net.router(r).checkInvariants();
}

/**
 * The crash path end to end: run a small storm with the flight
 * recorder armed, corrupt one router VC through the debug hook, and
 * check that the resulting invariant panic (a) names the offending
 * router, port and VC and (b) dumps the recorder's event trail to
 * stderr before dying.
 */
TEST(FuzzFlightRecorder, InvariantViolationDumpsTrail)
{
    auto crash = [] {
        Simulator simulator(11);
        config::RouterConfig cfg;
        cfg.numVcs = 6;
        config::NetworkConfig net_cfg;
        MetricsHub metrics;
        Rng net_rng = simulator.rng().split();
        Network net(simulator, cfg, net_cfg, metrics, net_rng);

        Tracer ring(256);
        net.attachTracer(ring);
        obs::FlightRecorder recorder(ring);
        recorder.arm();

        // A little traffic so the recorder has a trail to dump.
        traffic::MessageDesc desc;
        desc.stream = StreamId(7);
        desc.dest = NodeId(3);
        desc.cls = router::TrafficClass::Vbr;
        desc.vcLane = 1;
        desc.vtick = microseconds(4);
        desc.numFlits = 6;
        desc.endOfFrame = true;
        CallbackEvent inject(
            [&net, desc] { net.ni(0).injectMessage(desc); });
        simulator.schedule(inject, 0);
        simulator.run(seconds(1));

        net.router(0).debugCorruptVcForTest(2, 3);
        net.router(0).checkInvariants(); // Panics.
    };
    EXPECT_DEATH(crash(),
                 "invariant .* failed at port=2 vc=3"
                 ".*flight recorder: last .* events"
                 ".*host-inject.*stream=7");
}

std::vector<FuzzParams>
fuzzMatrix()
{
    std::vector<FuzzParams> params;
    const config::CrossbarKind crossbars[] = {
        config::CrossbarKind::Multiplexed, config::CrossbarKind::Full};
    const config::SwitchingKind switchings[] = {
        config::SwitchingKind::Wormhole,
        config::SwitchingKind::VirtualCutThrough};
    const config::TopologyKind topologies[] = {
        config::TopologyKind::SingleSwitch,
        config::TopologyKind::FatMesh};
    std::uint64_t seed = 1;
    for (auto crossbar : crossbars) {
        for (auto switching : switchings) {
            for (auto topology : topologies) {
                for (int i = 0; i < 3; ++i) {
                    params.push_back(
                        {seed++, crossbar, switching, topology});
                }
            }
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Storms, FuzzStorm, testing::ValuesIn(fuzzMatrix()),
    [](const testing::TestParamInfo<FuzzParams>& info) {
        const FuzzParams& p = info.param;
        std::string name = std::string(toString(p.crossbar)) + "_"
            + (p.switching == config::SwitchingKind::Wormhole
                   ? "wh"
                   : "vct")
            + "_"
            + (p.topology == config::TopologyKind::SingleSwitch
                   ? "sw"
                   : "mesh")
            + "_s" + std::to_string(p.seed);
        return name;
    });

} // namespace
