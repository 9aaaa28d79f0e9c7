/**
 * @file
 * Fat-mesh cluster walkthrough.
 *
 * Builds the paper's 2x2 fat-mesh (four 8-port switches, two
 * parallel links between neighbours, sixteen endpoints) at the
 * component level - network, metrics, traffic plan, sources - rather
 * than through the one-call harness, showing how the pieces compose
 * and how to read per-link utilization afterwards.
 *
 * Run: ./build/examples/example_fat_mesh_cluster
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/mediaworm.hh"

int
main()
{
    using namespace mediaworm;
    using sim::Tick;

    // --- configure --------------------------------------------------------
    config::RouterConfig router_cfg; // Table 1 defaults
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    net_cfg.meshWidth = 2;
    net_cfg.meshHeight = 2;
    net_cfg.fatFactor = 2;
    net_cfg.endpointsPerSwitch = 4;

    config::TrafficConfig traffic_cfg;
    traffic_cfg.inputLoad = 0.8;
    traffic_cfg.realTimeFraction = 0.6; // 60:40 VBR : best-effort
    traffic_cfg.warmupFrames = 2;
    traffic_cfg.measuredFrames = 6;
    // Compress the MPEG-2 workload 10x (see DESIGN.md).
    traffic_cfg.frameBytesMean *= 0.1;
    traffic_cfg.frameBytesStddev *= 0.1;
    traffic_cfg.frameInterval /= 10;

    // --- build ------------------------------------------------------------
    sim::Simulator simulator(/*seed=*/2026);
    network::MetricsHub metrics;
    sim::Rng net_rng = simulator.rng().split();
    network::Network net(simulator, router_cfg, net_cfg, metrics,
                         net_rng);
    std::printf("Built %s with %d endpoints on %d switches.\n",
                net_cfg.describe().c_str(), net.numNodes(),
                net.numRouters());

    sim::Rng mix_rng = simulator.rng().split();
    traffic::MixPlan plan = traffic::planMix(router_cfg, traffic_cfg,
                                             net.numNodes(), mix_rng);
    std::printf("Workload: %s\n\n", plan.describe().c_str());

    std::vector<std::unique_ptr<traffic::FrameSource>> sources;
    for (const traffic::Stream& stream : plan.streams) {
        sources.push_back(std::make_unique<traffic::FrameSource>(
            simulator, stream, traffic_cfg, router_cfg.flitSizeBits,
            net.ni(stream.src.value()), simulator.rng().split()));
        sources.back()->start();
    }
    const Tick horizon = static_cast<Tick>(traffic_cfg.warmupFrames
                                           + traffic_cfg.measuredFrames
                                           + 1)
        * traffic_cfg.frameInterval;
    std::vector<std::unique_ptr<traffic::BestEffortSource>> be_sources;
    for (int node = 0; node < net.numNodes(); ++node) {
        be_sources.push_back(
            std::make_unique<traffic::BestEffortSource>(
                simulator, sim::StreamId(1000000 + node),
                sim::NodeId(node), net.numNodes(),
                traffic_cfg.beMessageFlits, plan.beInterval, horizon,
                plan.partition.beFirst, plan.partition.beCount,
                net.ni(node), simulator.rng().split()));
        be_sources.back()->start();
    }

    // --- run ---------------------------------------------------------------
    // Measure from the end of warm-up: a time threshold, no event.
    metrics.enable(traffic_cfg.warmupEnd());
    simulator.runToCompletion();

    // --- report -------------------------------------------------------------
    std::printf("Simulated %s, %llu events.\n",
                sim::formatTime(simulator.now()).c_str(),
                static_cast<unsigned long long>(
                    simulator.eventsFired()));
    std::printf("VBR: d = %.2f ms, sigma_d = %.3f ms over %llu "
                "intervals\n",
                metrics.frames().meanIntervalMs() * 10,
                metrics.frames().stddevIntervalMs() * 10,
                static_cast<unsigned long long>(
                    metrics.frames().sampleCount()));
    std::printf("Best-effort: %.1f us average latency (%.1f us "
                "in-network)\n\n",
                metrics.beLatency().mean(),
                metrics.beNetworkLatency().mean());

    core::Table links({"link", "flits", "utilization"});
    for (const auto& link : net.links()) {
        if (link->name().find("sw") != 0)
            continue; // only inter-switch fat channels
        // Utilization: the share of the run the link spent sending,
        // one flit per cycle.
        const std::uint64_t flits = link->flitsSent();
        links.addRow(
            {link->name(),
             core::Table::num(static_cast<std::int64_t>(flits)),
             core::Table::num(static_cast<double>(flits)
                                  * static_cast<double>(
                                      router_cfg.cycleTime())
                                  / static_cast<double>(simulator.now()),
                              3)});
    }
    std::printf("Inter-switch fat-channel usage (least-loaded "
                "selection):\n%s",
                links.toString().c_str());
    return 0;
}
