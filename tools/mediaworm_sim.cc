/**
 * @file
 * mediaworm_sim - command-line front-end over the whole library.
 *
 * Runs one experiment point (wormhole or PCS) - or a multi-point
 * load sweep - with every knob the paper varies exposed as an
 * option. The wormhole path builds one campaign::Campaign point per
 * --loads value (labelled load=%.2f), as the bench binaries do;
 * points x replications run on the campaign's worker pool, sized by
 * --jobs (0 = usable CPUs / --shards). Output is a human-readable
 * report, the standard-column table as CSV, or a JSON campaign
 * artifact.
 *
 *   mediaworm_sim --load 0.9 --mix 0.8 --scheduler fifo
 *   mediaworm_sim --topology fat-mesh --load 0.8 --csv
 *   mediaworm_sim --pcs --load 0.87
 *   mediaworm_sim --loads 0.6,0.8,0.9 --jobs 8 --replications 5 \
 *       --json-out out.json
 *
 * The JSON artifact (schema mediaworm-campaign-v3) is by default a
 * pure function of configuration + seed: byte-identical for any
 * --jobs value. Pass --json-timing to append the wall-clock timing
 * section (making the file host- and run-dependent).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/artifact.hh"
#include "config/options.hh"
#include "core/mediaworm.hh"
#include "load_points.hh"
#include "obs/chrome_trace.hh"
#include "pcs/pcs_experiment.hh"

namespace {

using namespace mediaworm;

int
runPcs(double load, int frames, double scale, long long seed, bool csv)
{
    pcs::PcsExperimentConfig cfg;
    cfg.traffic.inputLoad = load;
    cfg.traffic.warmupFrames = 2;
    cfg.traffic.measuredFrames = frames;
    cfg.timeScale = scale;
    cfg.seed = static_cast<std::uint64_t>(seed);

    const pcs::PcsExperimentResult r = pcs::runPcsExperiment(cfg);
    if (csv) {
        std::printf("pcs,%.3f,%.4f,%.4f,%llu,%llu,%llu\n", load,
                    r.meanIntervalNormMs, r.stddevIntervalNormMs,
                    static_cast<unsigned long long>(r.attempts),
                    static_cast<unsigned long long>(r.established),
                    static_cast<unsigned long long>(r.dropped));
        return 0;
    }
    std::printf("PCS router at load %.2f\n", load);
    std::printf("  d = %.2f ms, sigma_d = %.3f ms (%llu intervals)\n",
                r.meanIntervalNormMs, r.stddevIntervalNormMs,
                static_cast<unsigned long long>(r.intervalSamples));
    std::printf("  connections: %llu attempts, %llu established, "
                "%llu dropped\n",
                static_cast<unsigned long long>(r.attempts),
                static_cast<unsigned long long>(r.established),
                static_cast<unsigned long long>(r.dropped));
    return 0;
}

/** Parses a comma-separated load list; empty on error. */
std::vector<double>
parseLoads(const std::string& text)
{
    std::vector<double> loads;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string item = text.substr(pos, end - pos);
        char* rest = nullptr;
        const double value = std::strtod(item.c_str(), &rest);
        if (rest == item.c_str() || *rest != '\0' || value <= 0.0
            || value > 1.5)
            return {};
        loads.push_back(value);
        pos = end + 1;
    }
    return loads;
}

} // namespace

int
main(int argc, char** argv)
{
    double load = 0.8;
    double mix = 0.8;
    int vcs = 16;
    int buffers = 20;
    int link_mbps = 400;
    int message_flits = 20;
    int frames = 6;
    double scale = 0.1;
    int seed = 1;
    int scheduler = 2;  // virtual-clock
    int crossbar = 0;   // multiplexed
    int topology = 0;   // single-switch
    int routing = 0;    // default (topology's natural policy)
    int rt_kind = 0;    // vbr
    int placement = 0;  // balanced
    int jobs = 1;
    int replications = 1;
    int shards = 1;
    std::string loads_arg;
    std::string json_out;
    bool json_timing = false;
    bool pcs_mode = false;
    bool csv = false;
    bool dump_stats = false;
    bool telemetry = false;
    bool flight_recorder = false;
    bool bounds_flag = false;
    bool provision_mode = false;
    double sla_ms = 33.0;
    std::string trace_out;

    config::OptionParser parser(
        "mediaworm_sim",
        "Flit-level simulation of the MediaWorm QoS router "
        "(HPCA 2000)");
    parser.addDouble("load", "offered input load (fraction of link)",
                     &load, 0.01, 1.5);
    parser.addString("loads", "comma-separated load list (multi-point "
                              "sweep; overrides --load)",
                     &loads_arg);
    parser.addDouble("mix", "real-time share x/(x+y) of the load",
                     &mix, 0.0, 1.0);
    parser.addInt("vcs", "virtual channels per physical channel",
                  &vcs, 1, config::kMaxVcs);
    parser.addInt("buffers", "flit buffer depth per VC", &buffers, 1,
                  4096);
    parser.addInt("link-mbps", "physical channel bandwidth",
                  &link_mbps, 1, 100000);
    parser.addInt("message-flits", "real-time message size",
                  &message_flits, 2, 100000);
    parser.addInt("frames", "measured frames per stream", &frames, 1,
                  1000);
    parser.addDouble("scale", "time-scale compression (1 = paper's "
                              "full MPEG-2 workload)",
                     &scale, 0.001, 1.0);
    parser.addInt("seed", "root random seed", &seed, 0, 1 << 30);
    parser.addInt("jobs", "worker threads (0 = all usable CPUs)",
                  &jobs, 0, 256);
    parser.addInt("replications",
                  "seed replications per point (95% CIs)",
                  &replications, 1, 1000);
    parser.addInt("shards",
                  "parallel shards per experiment (multi-router "
                  "topologies; 0 = one per usable CPU; results "
                  "are bit-identical for any value)",
                  &shards, 0, 256);
    parser.addString("json-out", "write a JSON campaign artifact "
                                 "(schema mediaworm-campaign-v3)",
                     &json_out);
    parser.addFlag("json-timing", "include the wall-clock timing "
                                  "section in the JSON artifact",
                   &json_timing);
    parser.addChoice("scheduler", "multiplexer discipline",
                     {"fifo", "round-robin", "virtual-clock",
                      "weighted-rr"},
                     &scheduler);
    parser.addChoice("crossbar", "crossbar organisation",
                     {"multiplexed", "full"}, &crossbar);
    parser.addChoice("topology", "interconnect",
                     {"single-switch", "fat-mesh", "mesh8x8",
                      "torus8x8", "clos"},
                     &topology);
    parser.addChoice("routing",
                     "routing policy on mesh8x8/torus8x8/clos "
                     "(default = the topology's natural policy)",
                     {"default", "dor", "updown", "adaptive"},
                     &routing);
    parser.addChoice("rt-kind", "real-time traffic model",
                     {"vbr", "cbr", "mpeg-gop"}, &rt_kind);
    parser.addChoice("placement", "stream placement policy",
                     {"balanced", "uniform-random"}, &placement);
    parser.addFlag("pcs", "simulate the PCS baseline instead",
                   &pcs_mode);
    parser.addFlag("csv", "emit CSV rows instead of a report",
                   &csv);
    parser.addFlag("stats",
                   "print delivery and event-elision counters",
                   &dump_stats);
    parser.addFlag("telemetry",
                   "collect per-stream sliding-window QoS telemetry "
                   "(adds a telemetry section to the report and the "
                   "JSON artifact)",
                   &telemetry);
    parser.addFlag("bounds",
                   "compute network-calculus worst-case delay bounds "
                   "per admitted stream (adds a bounds section to the "
                   "report and the JSON artifact)",
                   &bounds_flag);
    parser.addFlag("provision",
                   "pick VC count and reserved Virtual Clock rates "
                   "so every stream's analytic bound meets --sla-ms, "
                   "then simulate under that allocation",
                   &provision_mode);
    parser.addDouble("sla-ms",
                     "per-stream worst-case delay SLA for "
                     "--provision, in unscaled (paper-axis) ms",
                     &sla_ms, 0.001, 10000.0);
    parser.addString("trace-out",
                     "write a Chrome-trace JSON (load at "
                     "chrome://tracing) of the first point's flit "
                     "events",
                     &trace_out);
    parser.addFlag("flight-recorder",
                   "arm the crash-time flight recorder (dumps the "
                   "recent event trail to stderr on an assertion "
                   "failure)",
                   &flight_recorder);

    std::string error;
    if (!parser.parse(argc, argv, &error)) {
        std::fprintf(stderr, "%s\n%s", error.c_str(),
                     parser.help().c_str());
        return 2;
    }
    if (parser.helpRequested()) {
        std::printf("%s", parser.help().c_str());
        return 0;
    }

    if (pcs_mode)
        return runPcs(load, frames, scale, seed, csv);

    std::vector<double> loads{load};
    if (!loads_arg.empty()) {
        loads = parseLoads(loads_arg);
        if (loads.empty()) {
            std::fprintf(stderr,
                         "--loads: expected comma-separated values "
                         "in (0, 1.5], got '%s'\n",
                         loads_arg.c_str());
            return 2;
        }
    }

    core::ExperimentConfig base;
    base.router.numVcs = vcs;
    base.router.flitBufferDepth = buffers;
    base.router.linkBandwidthMbps = link_mbps;
    base.router.scheduler =
        static_cast<config::SchedulerKind>(scheduler);
    base.router.crossbar = static_cast<config::CrossbarKind>(crossbar);
    switch (topology) {
      case 0:
        base.network.topology = config::TopologyKind::SingleSwitch;
        break;
      case 1:
        base.network.topology = config::TopologyKind::FatMesh;
        break;
      case 2: // 8-ary 2-mesh, one endpoint per switch (64 nodes).
      case 3: // 8-ary 2-torus, same shape with wraparound.
        base.network.topology = topology == 2
            ? config::TopologyKind::Mesh
            : config::TopologyKind::Torus;
        base.network.meshWidth = 8;
        base.network.meshHeight = 8;
        base.network.endpointsPerSwitch = 1;
        break;
      case 4: // 3-stage Clos: 4 spines, 16 leaves x 4 endpoints.
        base.network.topology = config::TopologyKind::Clos;
        base.network.closM = 4;
        base.network.closN = 4;
        base.network.closR = 16;
        // Each spine needs one port per leaf.
        base.router.numPorts = 16;
        break;
    }
    base.network.routing = static_cast<config::RoutingKind>(routing);
    base.traffic.inputLoad = load;
    base.traffic.realTimeFraction = mix;
    base.traffic.realTimeKind =
        static_cast<config::RealTimeKind>(rt_kind);
    base.traffic.streamPlacement =
        static_cast<config::StreamPlacement>(placement);
    base.traffic.messageFlits = message_flits;
    base.traffic.warmupFrames = 2;
    base.traffic.measuredFrames = frames;
    base.timeScale = scale;
    base.seed = static_cast<std::uint64_t>(seed);
    base.shards = shards;
    base.obs.telemetry.enabled = telemetry;
    base.obs.flightRecorder = flight_recorder;
    base.obs.trace = !trace_out.empty();
    base.calculus.enabled = bounds_flag || provision_mode;

    if (provision_mode) {
        calculus::ProvisionRequest request;
        // The SLA arrives on the paper's unscaled axis; the oracle
        // works in the run's scaled time base.
        request.slaUs = sla_ms * 1000.0 * scale;
        // Provision at the sweep's heaviest point: an allocation
        // whose bound holds there holds at every lighter load too.
        const double provisionLoad =
            *std::max_element(loads.begin(), loads.end());
        config::TrafficConfig provisionTraffic = base.traffic;
        provisionTraffic.inputLoad = provisionLoad;
        const calculus::ProvisionResult alloc = calculus::provision(
            base.router, provisionTraffic, base.network, base.seed,
            scale, request);
        std::printf("Provisioning: %s\n", alloc.describe().c_str());
        if (!alloc.feasible) {
            std::fprintf(stderr,
                         "provision: no allocation meets the %.2f ms "
                         "SLA at load %.2f; lower the load or relax "
                         "--sla-ms\n",
                         sla_ms, provisionLoad);
            return 1;
        }
        base.router.numVcs = alloc.numVcs;
        base.traffic.reservedRateFactor = alloc.reservedRateFactor;
    }

    // The single switch takes its size from the router, as in Network.
    config::NetworkConfig sized = base.network;
    sized.singleSwitchPorts = base.router.numPorts;
    if (const std::string error =
            network::Topology::build(sized).budgetError(base.router);
        !error.empty()) {
        std::fprintf(stderr, "--vcs/--buffers: %s\n", error.c_str());
        return 2;
    }

    campaign::CampaignConfig ccfg;
    ccfg.jobs = jobs;
    ccfg.replications = replications;
    campaign::Campaign camp(ccfg);
    tools::addLoadPoints(camp, base, loads);
    const std::vector<campaign::PointSummary>& results = camp.run();

    if (!json_out.empty()) {
        campaign::ArtifactOptions options;
        options.name = "mediaworm_sim";
        options.includeTiming = json_timing;
        if (!campaign::writeArtifact(json_out, camp, options))
            return 1;
        std::fprintf(stderr, "wrote %s\n", json_out.c_str());
    }

    if (!trace_out.empty()) {
        const auto& obs0 = results[0].first().observations;
        if (obs0 == nullptr || !obs0->hasTrace
            || !obs::writeChromeTrace(trace_out, obs0->trace))
            return 1;
        std::fprintf(stderr, "wrote %s (%zu events)\n",
                     trace_out.c_str(), obs0->trace.size());
    }

    const core::Table table = tools::resultsTable(results, replications > 1);
    if (csv) {
        std::printf("%s", table.toCsv().c_str());
        return 0;
    }

    std::printf("MediaWorm %s | %s\n",
                base.router.describe().c_str(),
                base.network.describe().c_str());
    std::string load_axis;
    for (const double l : loads) {
        char item[16];
        std::snprintf(item, sizeof(item), "%s%.2f",
                      load_axis.empty() ? "" : ",", l);
        load_axis += item;
    }
    std::printf("Workload: load=%s %s\n", load_axis.c_str(),
                base.traffic.describe().c_str());
    std::printf("Campaign: %zu point(s) x %d replication(s), "
                "jobs=%d, root seed %d\n\n",
                loads.size(), replications, jobs, seed);
    std::printf("%s\n", table.toString().c_str());

    // Single-point classic report details.
    if (loads.size() == 1) {
        const campaign::PointSummary& s = results[0];
        const core::ExperimentResult& r = s.first();
        std::printf("Real-time: d = %.2f ms, sigma_d = %.3f ms "
                    "(%llu intervals, %d streams)\n",
                    s.mean("mean_interval_norm_ms"),
                    s.mean("stddev_interval_norm_ms"),
                    static_cast<unsigned long long>(
                        r.intervalSamples),
                    r.rtStreams);
        if (replications > 1) {
            const campaign::MetricSummary& d =
                s.metric("mean_interval_norm_ms");
            std::printf("  d 95%% CI: [%.3f, %.3f] ms over %zu "
                        "replications\n",
                        d.lo(), d.hi(), d.n);
        }
        std::printf("Best-effort: %.1f us total, %.1f us in-network "
                    "(%llu messages)\n",
                    s.mean("be_latency_us"),
                    s.mean("be_network_latency_us"),
                    static_cast<unsigned long long>(r.beMessages));
        if (r.observations != nullptr
            && r.observations->hasTelemetry) {
            const obs::TelemetryReport& t = r.observations->telemetry;
            const double div = t.timeScale > 0.0 ? t.timeScale : 1.0;
            std::printf("Telemetry: %zu streams, worst sigma_d = "
                        "%.3f ms (stream %d), window %.2f ms "
                        "(unscaled axis)\n",
                        t.streams.size(), t.worstStddevMs / div,
                        t.worstStream.valid()
                            ? t.worstStream.value()
                            : -1,
                        sim::toMilliseconds(t.window) / div);
        }
        if (r.bounds != nullptr) {
            const calculus::BoundsReport& b = *r.bounds;
            if (b.allBounded()) {
                std::printf("Bounds: %zu streams, worst analytic "
                            "bound %.1f us (scaled axis, %.2f ms "
                            "unscaled)\n",
                            b.streams.size(), b.maxBoundUs,
                            b.maxBoundUs / 1000.0
                                / (scale > 0.0 ? scale : 1.0));
            } else if (!b.tfaConverged) {
                std::printf("Bounds: %zu streams, none certified: "
                            "the TFA iteration still moved after %d "
                            "passes (cyclic routes)\n",
                            b.streams.size(), b.tfaPasses);
            } else {
                std::printf("Bounds: %zu streams, %d with no finite "
                            "bound at this operating point\n",
                            b.streams.size(), b.unboundedStreams);
            }
            if (r.observations != nullptr
                && r.observations->hasTelemetry) {
                double min_margin = calculus::kUnbounded;
                int tightest = -1;
                for (const calculus::StreamBound& sb : b.streams) {
                    const obs::StreamSeries* series =
                        r.observations->telemetry.find(sb.stream);
                    if (series == nullptr || !sb.bounded)
                        continue;
                    const double margin =
                        sb.boundUs - series->worstMessageDelayUs;
                    if (margin < min_margin) {
                        min_margin = margin;
                        tightest = sb.stream.value();
                    }
                }
                if (tightest >= 0) {
                    std::printf("  tightest bound-vs-observed margin: "
                                "%.1f us (stream %d)\n",
                                min_margin, tightest);
                }
            }
        }
        std::printf("Simulated %.1f ms in %.2f s (%llu events, "
                    "%.2f Mev/s)%s\n",
                    r.simulatedMs, r.wallSeconds,
                    static_cast<unsigned long long>(r.eventsFired),
                    r.eventsPerSec / 1e6,
                    r.truncated ? " [TRUNCATED]" : "");

        if (dump_stats) {
            // Re-run with a registry attached would double the cost;
            // instead report the aggregate counters we already have.
            std::printf("\nframes delivered: %llu\nflits delivered: "
                        "%llu\n",
                        static_cast<unsigned long long>(
                            r.framesDelivered),
                        static_cast<unsigned long long>(
                            r.flitsDelivered));
            // Reporting-only counters (shard-dependent, so they stay
            // out of the deterministic JSON artifact): the wakeups
            // lazy-tick elision skipped and the idle ticks the
            // kernel clock jumped over (DESIGN.md sections 13-14).
            std::printf("elided wakeups: %llu\nidle ticks skipped: "
                        "%llu\n",
                        static_cast<unsigned long long>(
                            r.elidedEvents),
                        static_cast<unsigned long long>(
                            r.idleTicksSkipped));
        }
    }
    return 0;
}
