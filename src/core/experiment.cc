#include "core/experiment.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "network/metrics.hh"
#include "network/network.hh"
#include "network/partition.hh"
#include "obs/flight_recorder.hh"
#include "obs/telemetry.hh"
#include "sim/cpus.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/pdes.hh"
#include "sim/simulator.hh"
#include "traffic/best_effort_source.hh"
#include "traffic/frame_source.hh"
#include "traffic/traffic_mix.hh"

namespace mediaworm::core {

ExperimentResult
runExperiment(const ExperimentConfig& cfg)
{
    const auto wall_start = std::chrono::steady_clock::now();

    const config::TrafficConfig traffic =
        cfg.traffic.scaled(cfg.timeScale);
    cfg.router.validate();
    traffic.validate();
    cfg.network.validate();

    // Shard plan. The flit tracer's ring is single-threaded, so any
    // trace-based observer forces the classic one-shard run.
    network::ShardPlan shard_plan = network::planShards(
        cfg.network, cfg.shards,
        static_cast<unsigned>(sim::usableCpus()));
    if (!shard_plan.trivial()
        && (cfg.obs.trace || cfg.obs.flightRecorder)) {
        sim::warn("runExperiment: flit tracing requested; running on "
                  "one shard instead of %d",
                  shard_plan.numShards);
        shard_plan = network::ShardPlan{};
    }

    // Shard 0 is the root kernel: every RNG split that seeds the
    // model comes from it, in construction order, so the stream of
    // seeds is identical however many shards execute the run.
    sim::Simulator simulator(cfg.seed);
    std::vector<std::unique_ptr<sim::Simulator>> extra_sims;
    std::vector<sim::Simulator*> sims{&simulator};
    for (int s = 1; s < shard_plan.numShards; ++s) {
        extra_sims.push_back(std::make_unique<sim::Simulator>(
            cfg.seed
            ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(s))));
        sims.push_back(extra_sims.back().get());
    }
    network::MetricsHub metrics;
    sim::Rng net_rng = simulator.rng().split();
    network::Network net(sims, shard_plan, cfg.router, cfg.network,
                         metrics, net_rng);

    sim::Rng mix_rng = simulator.rng().split();
    traffic::MixPlan plan =
        traffic::planMix(cfg.router, traffic, net.numNodes(), mix_rng);

    // Analytic delay bounds for the planned mix. Computed before the
    // run from configuration alone: no events, no RNG draws, so the
    // simulation (and both digests) is bit-identical with the
    // oracle on or off.
    std::shared_ptr<const calculus::BoundsReport> bounds;
    if (cfg.calculus.enabled) {
        bounds = std::make_shared<const calculus::BoundsReport>(
            calculus::computeBounds(cfg.router, traffic, cfg.network,
                                    plan.streams, cfg.calculus));
    }

    // Real-time sources, one per stream.
    std::vector<std::unique_ptr<traffic::FrameSource>> rt_sources;
    rt_sources.reserve(plan.streams.size());
    for (const traffic::Stream& stream : plan.streams) {
        rt_sources.push_back(std::make_unique<traffic::FrameSource>(
            net.simOfNode(stream.src.value()), stream, traffic,
            cfg.router.flitSizeBits, net.ni(stream.src.value()),
            simulator.rng().split()));
    }

    const sim::Tick horizon = traffic.horizon();

    // Best-effort sources, one per node.
    std::vector<std::unique_ptr<traffic::BestEffortSource>> be_sources;
    if (plan.beInterval != sim::kTickNever) {
        be_sources.reserve(static_cast<std::size_t>(net.numNodes()));
        for (int node = 0; node < net.numNodes(); ++node) {
            be_sources.push_back(
                std::make_unique<traffic::BestEffortSource>(
                    net.simOfNode(node),
                    sim::StreamId(1000000 + node), sim::NodeId(node),
                    net.numNodes(), traffic.beMessageFlits,
                    plan.beInterval, horizon,
                    plan.partition.beFirst, plan.partition.beCount,
                    net.ni(node), simulator.rng().split()));
        }
    }

    for (auto& source : rt_sources)
        source->start();
    for (auto& source : be_sources)
        source->start();

    // Gating is by record timestamp against the warm-up end (see
    // network/metrics.hh) - no enable event, so it costs sharded
    // runs no synchronization.
    const sim::Tick warm = traffic.warmupEnd();
    metrics.enable(warm);

    // Observability. Every observer is passive - no scheduled events,
    // no RNG draws - so enabling any of them leaves the deterministic
    // outputs (and both digests) bit-identical.
    std::shared_ptr<obs::RunObservations> observations;
    std::vector<std::unique_ptr<obs::StreamTelemetry>> telemetry;
    std::unique_ptr<obs::FlightRecorder> recorder;
    if (cfg.obs.any()) {
        observations = std::make_shared<obs::RunObservations>();
        if (cfg.obs.telemetry) {
            obs::TelemetryConfig tcfg;
            tcfg.window = 4 * traffic.frameInterval;
            tcfg.measureFrom = warm;
            tcfg.flitSizeBits = cfg.router.flitSizeBits;
            // One collector per shard so observation stays lock-free;
            // the reports merge exactly after the run (windows are
            // absolute-aligned in every collector).
            for (int s = 0; s < shard_plan.numShards; ++s)
                telemetry.push_back(
                    std::make_unique<obs::StreamTelemetry>(tcfg));
            for (int node = 0; node < net.numNodes(); ++node) {
                metrics.lane(node).attachTelemetry(
                    telemetry[static_cast<std::size_t>(
                                  net.shardOfNode(node))]
                        .get());
            }
        }
        if (cfg.obs.trace || cfg.obs.flightRecorder) {
            sim::Tracer& tracer = observations->trace.emplace(
                cfg.obs.trace ? obs::kTraceCapacity
                              : obs::kFlightRecorderCapacity);
            net.attachTracer(tracer);
            if (cfg.obs.flightRecorder) {
                recorder = std::make_unique<obs::FlightRecorder>(tracer);
                recorder->arm();
            }
        }
    }

    // Run to drain, with a generous safety cap: at most several
    // injection horizons (overload backlogs drain at service rate).
    const sim::Tick cap = cfg.maxSimTime > 0
        ? cfg.maxSimTime
        : horizon * 8 + 100 * sim::kMillisecond;
    std::vector<sim::ShardRunStats> shard_stats;
    if (shard_plan.trivial()) {
        simulator.run(cap);
    } else {
        sim::PdesExecutor executor(sims, net.minCrossShardDelay());
        for (const network::Network::CrossChannel& channel :
             net.crossChannels()) {
            router::Link* link = channel.link;
            executor.addMailbox(
                channel.consumerShard,
                channel.isFlit
                    ? std::function<std::uint64_t()>(
                          [link] { return link->flushFlitOutbox(); })
                    : std::function<std::uint64_t()>(
                          [link] { return link->flushCreditOutbox(); }));
        }
        executor.run(cap);
        shard_stats = executor.stats();
    }

    ExperimentResult result;
    for (sim::Simulator* shard : sims) {
        // An elided wakeup beyond the cap counts like the queued
        // event it stands for.
        result.truncated |=
            !shard->queue().empty() || shard->lazyTickPending();
    }
    if (result.truncated) {
        sim::warn("runExperiment: truncated at %s with %llu flits of "
                  "host backlog",
                  sim::formatTime(cap).c_str(),
                  static_cast<unsigned long long>(
                      net.totalBacklogFlits()));
        // Unhook pending events so components tear down cleanly.
        for (sim::Simulator* shard : sims)
            shard->queue().clear();
    } else {
        // Routing is deadlock-free and sinks drain, so a run whose
        // events ran out has delivered every flit it injected.
        std::uint64_t injected = 0;
        int stuck = -1;
        for (int node = 0; node < net.numNodes(); ++node) {
            injected += net.ni(node).flitsInjected();
            if (stuck < 0 && net.ni(node).backlogFlits() > 0)
                stuck = node;
        }
        if (stuck >= 0 || injected != metrics.flitsDelivered()) {
            sim::panic("runExperiment: drained with %llu flits injected "
                       "but %llu delivered, %llu flits of host backlog "
                       "(first at node %d)",
                       static_cast<unsigned long long>(injected),
                       static_cast<unsigned long long>(
                           metrics.flitsDelivered()),
                       static_cast<unsigned long long>(
                           net.totalBacklogFlits()),
                       stuck);
        }
    }

    const auto& frames = metrics.frames();
    result.meanIntervalMs = frames.meanIntervalMs();
    result.stddevIntervalMs = frames.stddevIntervalMs();
    result.meanIntervalNormMs = result.meanIntervalMs / cfg.timeScale;
    result.stddevIntervalNormMs =
        result.stddevIntervalMs / cfg.timeScale;
    result.beLatencyUs = metrics.beLatency().mean();
    result.beNetworkLatencyUs = metrics.beNetworkLatency().mean();
    result.beLatencyP99Us = metrics.beLatencyHistogram().quantile(0.99);
    result.rtMessageLatencyUs = metrics.rtMessageLatency().mean();
    result.intervalSamples = frames.sampleCount();
    result.framesDelivered = frames.framesDelivered();
    result.beMessages = metrics.beMessages();
    result.flitsDelivered = metrics.flitsDelivered();
    result.eventsFired = 0;
    result.elidedEvents = 0;
    result.idleTicksSkipped = 0;
    for (sim::Simulator* shard : sims) {
        result.eventsFired += shard->eventsFired();
        result.elidedEvents += shard->elidedEvents();
        result.idleTicksSkipped += shard->idleTicksSkipped();
    }
    result.rtStreams = static_cast<int>(plan.streams.size());
    result.streamsPerNode = plan.streamsPerNode;
    // Simulator::run(cap) leaves every shard's clock at the cap, so
    // this matches the single-threaded figure exactly.
    result.simulatedMs = sim::toMilliseconds(cap);

    if (!telemetry.empty()) {
        std::vector<obs::TelemetryReport> reports;
        reports.reserve(telemetry.size());
        for (auto& collector : telemetry)
            reports.push_back(collector->finish(cap));
        observations->telemetry =
            obs::StreamTelemetry::merge(std::move(reports));
        observations->telemetry->timeScale = cfg.timeScale;
    }
    if (!shard_stats.empty()) {
        if (observations == nullptr)
            observations = std::make_shared<obs::RunObservations>();
        observations->shards = std::move(shard_stats);
    }
    result.observations = std::move(observations);
    result.bounds = std::move(bounds);

    const auto wall_end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    result.eventsPerSec = result.wallSeconds > 0.0
        ? static_cast<double>(result.eventsFired) / result.wallSeconds
        : 0.0;
    return result;
}

std::string
ExperimentResult::describe() const
{
    char buf[240];
    std::snprintf(
        buf, sizeof(buf),
        "d=%.2fms sd=%.3fms (norm d=%.2f sd=%.3f) beLat=%.1fus "
        "[%llu intervals, %llu frames, %llu BE msgs]%s",
        meanIntervalMs, stddevIntervalMs, meanIntervalNormMs,
        stddevIntervalNormMs, beLatencyUs,
        static_cast<unsigned long long>(intervalSamples),
        static_cast<unsigned long long>(framesDelivered),
        static_cast<unsigned long long>(beMessages),
        truncated ? " TRUNCATED" : "");
    return buf;
}

namespace {

/** Folds one 64-bit word into an FNV-1a state, byte by byte. */
std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

std::uint64_t
ExperimentResult::modelDigest() const
{
    std::uint64_t h = 14695981039346656037ULL;
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(meanIntervalMs));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(stddevIntervalMs));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(meanIntervalNormMs));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(stddevIntervalNormMs));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(beLatencyUs));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(beNetworkLatencyUs));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(beLatencyP99Us));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(rtMessageLatencyUs));
    h = fnv1a64(h, intervalSamples);
    h = fnv1a64(h, framesDelivered);
    h = fnv1a64(h, beMessages);
    h = fnv1a64(h, flitsDelivered);
    h = fnv1a64(h, static_cast<std::uint64_t>(rtStreams));
    h = fnv1a64(h, static_cast<std::uint64_t>(streamsPerNode));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(simulatedMs));
    h = fnv1a64(h, truncated ? 1u : 0u);
    return h;
}

std::uint64_t
ExperimentResult::kernelDigest() const
{
    std::uint64_t h = 14695981039346656037ULL;
    h = fnv1a64(h, eventsFired);
    h = fnv1a64(h, elidedEvents);
    return h;
}

} // namespace mediaworm::core
