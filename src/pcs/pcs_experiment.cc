#include "pcs/pcs_experiment.hh"

#include <cmath>
#include <memory>
#include <vector>

#include "network/metrics.hh"
#include "pcs/pcs_network.hh"
#include "sim/simulator.hh"
#include "traffic/frame_source.hh"

namespace mediaworm::pcs {

PcsExperimentResult
runPcsExperiment(const PcsExperimentConfig& cfg)
{
    const config::TrafficConfig traffic =
        cfg.traffic.scaled(cfg.timeScale);
    cfg.pcs.validate();
    traffic.validate();

    sim::Simulator simulator(cfg.seed);
    network::MetricsHub metrics;
    PcsNetwork net(simulator, cfg.pcs, metrics);

    // Target concurrent circuits for the offered load: each link
    // carries load * linkRate / streamRate connections.
    const double per_link = cfg.traffic.inputLoad
        * static_cast<double>(cfg.pcs.linkBandwidthMbps)
        / cfg.traffic.streamRateMbps();
    const int target = static_cast<int>(
        std::lround(per_link * static_cast<double>(cfg.pcs.numPorts)));

    PcsExperimentResult result;
    result.connectionsRequested = target;

    const sim::Tick vtick = traffic.streamVtick(cfg.pcs.flitSizeBits);
    sim::Rng setup_rng = simulator.rng().split();

    // Round-robin the sources so every node requests its share of
    // outgoing streams, exactly like the wormhole workload.
    std::vector<Connection> circuits;
    circuits.reserve(static_cast<std::size_t>(target));
    for (int k = 0; k < target; ++k) {
        const sim::NodeId src(k % cfg.pcs.numPorts);
        auto connection = net.table().establish(src, vtick, setup_rng);
        if (connection.has_value()) {
            net.registerConnection(*connection);
            circuits.push_back(*connection);
        }
    }

    // Stream frames over every established circuit.
    sim::Rng stream_rng = simulator.rng().split();
    std::vector<std::unique_ptr<traffic::FrameSource>> sources;
    sources.reserve(circuits.size());
    for (const Connection& connection : circuits) {
        const traffic::Stream stream =
            net.makeStream(connection, traffic, stream_rng);
        sources.push_back(std::make_unique<traffic::FrameSource>(
            simulator, stream, traffic, cfg.pcs.flitSizeBits, net,
            simulator.rng().split()));
        sources.back()->start();
    }

    // Measure from the end of warm-up: a time threshold, no event
    // (network/metrics.hh).
    metrics.enable(traffic.warmupEnd());
    simulator.run(traffic.horizon() * 8 + 100 * sim::kMillisecond);

    result.truncated = !simulator.queue().empty();
    if (result.truncated)
        simulator.queue().clear();
    const auto& frames = metrics.frames();
    result.meanIntervalMs = frames.meanIntervalMs();
    result.stddevIntervalMs = frames.stddevIntervalMs();
    result.meanIntervalNormMs = result.meanIntervalMs / cfg.timeScale;
    result.stddevIntervalNormMs =
        result.stddevIntervalMs / cfg.timeScale;
    result.intervalSamples = frames.sampleCount();
    result.framesDelivered = frames.framesDelivered();
    result.attempts = net.table().attempts();
    result.established = net.table().established();
    result.dropped = net.table().dropped();
    result.eventsFired = simulator.eventsFired();
    return result;
}

} // namespace mediaworm::pcs
