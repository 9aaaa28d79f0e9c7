/**
 * @file
 * Cross-module integration tests: conservation laws over a manually
 * assembled network, scheduler orderings at saturation, and
 * end-to-end runs of every topology/crossbar combination.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "network/network.hh"
#include "traffic/best_effort_source.hh"
#include "traffic/frame_source.hh"
#include "traffic/traffic_mix.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;

/**
 * Builds a network plus sources by hand (mirroring runExperiment) so
 * the test can inspect component counters afterwards.
 */
struct Harness
{
    explicit Harness(double load, double rt_fraction,
                     config::TopologyKind topology =
                         config::TopologyKind::SingleSwitch)
        : simulator(7)
    {
        routerCfg.numVcs = 8;
        netCfg.topology = topology;
        traffic.inputLoad = load;
        traffic.realTimeFraction = rt_fraction;
        traffic.warmupFrames = 1;
        traffic.measuredFrames = 2;
        // Compressed workload (like ExperimentConfig.timeScale 0.05).
        traffic = traffic.scaled(0.05);

        netRng = simulator.rng().split();
        net = std::make_unique<network::Network>(
            simulator, routerCfg, netCfg, metrics, netRng);
        Rng mix_rng = simulator.rng().split();
        plan = traffic::planMix(routerCfg, traffic, net->numNodes(),
                                mix_rng);
        for (const traffic::Stream& stream : plan.streams) {
            sources.push_back(std::make_unique<traffic::FrameSource>(
                simulator, stream, traffic, routerCfg.flitSizeBits,
                net->ni(stream.src.value()), simulator.rng().split()));
            sources.back()->start();
        }
        const Tick horizon = traffic.horizon();
        for (int node = 0;
             plan.beInterval != kTickNever && node < net->numNodes();
             ++node) {
            beSources.push_back(
                std::make_unique<traffic::BestEffortSource>(
                    simulator, StreamId(1000000 + node), NodeId(node),
                    net->numNodes(), traffic.beMessageFlits,
                    plan.beInterval, horizon, plan.partition.beFirst,
                    plan.partition.beCount, net->ni(node),
                    simulator.rng().split()));
            beSources.back()->start();
        }
    }

    void
    run()
    {
        simulator.run(seconds(2));
        ASSERT_TRUE(simulator.queue().empty()) << "did not drain";
    }

    Simulator simulator;
    config::RouterConfig routerCfg;
    config::NetworkConfig netCfg;
    config::TrafficConfig traffic;
    network::MetricsHub metrics;
    Rng netRng{0};
    std::unique_ptr<network::Network> net;
    traffic::MixPlan plan;
    std::vector<std::unique_ptr<traffic::FrameSource>> sources;
    std::vector<std::unique_ptr<traffic::BestEffortSource>> beSources;
};

TEST(Integration, FlitConservationSingleSwitch)
{
    Harness harness(0.7, 0.8);
    harness.run();

    std::uint64_t injected = 0;
    for (int node = 0; node < harness.net->numNodes(); ++node)
        injected += harness.net->ni(node).flitsInjected();
    EXPECT_EQ(injected, harness.metrics.flitsDelivered())
        << "flits were lost or duplicated in the network";
    EXPECT_EQ(harness.net->totalBacklogFlits(), 0u);
    harness.net->router(0).checkInvariants();
}

TEST(Integration, FrameConservationSingleSwitch)
{
    Harness harness(0.6, 1.0);
    harness.run();

    std::uint64_t frames_generated = 0;
    for (const auto& source : harness.sources)
        frames_generated += static_cast<std::uint64_t>(
            source->framesGenerated());
    EXPECT_EQ(harness.metrics.frames().framesDelivered(),
              frames_generated);
}

TEST(Integration, MessageConservationWithBestEffort)
{
    Harness harness(0.7, 0.5);
    harness.run();

    std::uint64_t be_injected = 0;
    for (const auto& source : harness.beSources)
        be_injected += static_cast<std::uint64_t>(
            source->messagesInjected());
    EXPECT_EQ(harness.metrics.beMessages(), be_injected);
}

TEST(Integration, FlitConservationFatMesh)
{
    Harness harness(0.6, 0.8, config::TopologyKind::FatMesh);
    harness.run();

    std::uint64_t injected = 0;
    for (int node = 0; node < harness.net->numNodes(); ++node)
        injected += harness.net->ni(node).flitsInjected();
    EXPECT_EQ(injected, harness.metrics.flitsDelivered());
    for (int r = 0; r < harness.net->numRouters(); ++r)
        harness.net->router(r).checkInvariants();
}

TEST(Integration, RouterCountersMatchDeliveredTraffic)
{
    Harness harness(0.5, 1.0);
    harness.run();
    // Single switch: every delivered flit passed the one router.
    EXPECT_EQ(harness.net->router(0).flitsForwarded(),
              harness.metrics.flitsDelivered());
}

TEST(Integration, VirtualClockBeatsFifoAtSaturation)
{
    core::ExperimentConfig cfg;
    cfg.traffic.inputLoad = 1.0;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 4;
    cfg.timeScale = 0.05;

    cfg.router.scheduler = config::SchedulerKind::VirtualClock;
    const auto vc = core::runExperiment(cfg);
    cfg.router.scheduler = config::SchedulerKind::Fifo;
    const auto fifo = core::runExperiment(cfg);

    EXPECT_LT(vc.stddevIntervalNormMs, fifo.stddevIntervalNormMs)
        << "the paper's headline claim failed";
    EXPECT_LT(vc.stddevIntervalNormMs, 1.5);
}

TEST(Integration, BestEffortPaysForRealTimePriority)
{
    core::ExperimentConfig cfg;
    cfg.traffic.inputLoad = 0.9;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 4;
    cfg.timeScale = 0.05;

    cfg.traffic.realTimeFraction = 0.2;
    const auto few_rt = core::runExperiment(cfg);
    cfg.traffic.realTimeFraction = 0.8;
    const auto many_rt = core::runExperiment(cfg);

    // Table 2's trend: more RT share at equal load hurts BE latency.
    EXPECT_GT(many_rt.beLatencyUs, few_rt.beLatencyUs);
}

TEST(Integration, FullCrossbarEndToEnd)
{
    core::ExperimentConfig cfg;
    cfg.router.numVcs = 4;
    cfg.router.crossbar = config::CrossbarKind::Full;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 1.0;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 3;
    cfg.timeScale = 0.05;

    const auto result = core::runExperiment(cfg);
    EXPECT_FALSE(result.truncated);
    EXPECT_NEAR(result.meanIntervalNormMs, 33.0, 1.0);
}

TEST(Integration, MoreVcsNeverHurtJitter)
{
    core::ExperimentConfig cfg;
    cfg.traffic.inputLoad = 0.9;
    cfg.traffic.realTimeFraction = 1.0;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 4;
    cfg.timeScale = 0.05;

    cfg.router.numVcs = 4;
    const auto four = core::runExperiment(cfg);
    cfg.router.numVcs = 16;
    const auto sixteen = core::runExperiment(cfg);
    EXPECT_LE(sixteen.stddevIntervalNormMs,
              four.stddevIntervalNormMs * 1.1)
        << "Figure 6's VC ordering failed";
}

TEST(Integration, FatMeshDeliversUnderMixedLoad)
{
    core::ExperimentConfig cfg;
    cfg.network.topology = config::TopologyKind::FatMesh;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 3;
    cfg.timeScale = 0.05;

    const auto result = core::runExperiment(cfg);
    EXPECT_FALSE(result.truncated);
    EXPECT_NEAR(result.meanIntervalNormMs, 33.0, 1.0);
    EXPECT_LT(result.stddevIntervalNormMs, 2.0);
    EXPECT_GT(result.beMessages, 0u);
}

} // namespace
