/**
 * @file
 * perfbench_driver - runs one simulation of one benchmark workload
 * through the library's public API, with a clock around each setup
 * stage and around the run, and prints the raw measurements and
 * model outputs as one JSON object on stdout. perfbench/run.py builds
 * this program, runs it repeatedly, checks the model outputs and
 * turns the raw numbers into the benchmark's metrics (see
 * perfbench/README.md). One simulation per process keeps each run's
 * peak resident memory its own.
 *
 *   perfbench_driver --workload switch-vc --seed 1 --shards 1 \
 *       --traced 0
 *
 * Every timing is host wall time from std::chrono::steady_clock.
 * --traced 1 replaces Simulator::run(cap) with a peekEarliest() +
 * step() loop on one shard that charges each step's host time to the
 * class of the event that led it (Event::name()); a final run(cap)
 * settles elided wakeups exactly as the untraced run does.
 */

#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calculus/oracle.hh"
#include "config/network_config.hh"
#include "config/router_config.hh"
#include "config/traffic_config.hh"
#include "network/metrics.hh"
#include "network/network.hh"
#include "network/partition.hh"
#include "sim/event.hh"
#include "sim/pdes.hh"
#include "sim/simulator.hh"
#include "stats/registry.hh"
#include "traffic/best_effort_source.hh"
#include "traffic/frame_source.hh"
#include "traffic/traffic_mix.hh"

namespace {

using namespace mediaworm;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One benchmark workload: the paper's Table-1 router everywhere. */
struct Workload
{
    const char* name = nullptr; ///< nullptr: no such workload.
    config::RouterConfig router;
    config::TrafficConfig traffic;
    config::NetworkConfig network;
    double timeScale = 0.05;
    int shards = 1;
};

Workload
makeWorkload(const std::string& name)
{
    Workload w;
    w.router.numPorts = 8;
    w.router.numVcs = 16;
    w.router.flitBufferDepth = 20;
    w.router.flitSizeBits = 32;
    w.router.linkBandwidthMbps = 400;
    w.router.scheduler = config::SchedulerKind::VirtualClock;
    w.router.crossbar = config::CrossbarKind::Multiplexed;
    if (name == "switch-vc") {
        // Fig 5 / Table 2 operating point: one 8-port switch.
        w.name = "switch-vc";
        w.network.topology = config::TopologyKind::SingleSwitch;
        w.traffic.inputLoad = 0.9;
        w.traffic.realTimeFraction = 0.8;
        w.traffic.warmupFrames = 2;
        w.traffic.measuredFrames = 6;
        w.timeScale = 0.05;
    } else if (name == "torus8x8-dor") {
        // Multi-hop point: 64 routers, one endpoint each, DOR with
        // dateline VC classes, one shard.
        w.name = "torus8x8-dor";
        w.network.topology = config::TopologyKind::Torus;
        w.network.routing = config::RoutingKind::DimensionOrder;
        w.network.meshWidth = 8;
        w.network.meshHeight = 8;
        w.network.endpointsPerSwitch = 1;
        w.traffic.inputLoad = 0.8;
        w.traffic.realTimeFraction = 0.8;
        w.traffic.warmupFrames = 1;
        w.traffic.measuredFrames = 1;
        w.timeScale = 0.01;
    } else if (name == "fatmesh-2shard") {
        // Fig 9: 2x2 fat mesh, fat factor 2, 4 endpoints per switch,
        // LeastLoaded fat-link policy, on two PDES shards.
        w.name = "fatmesh-2shard";
        w.network.topology = config::TopologyKind::FatMesh;
        w.network.meshWidth = 2;
        w.network.meshHeight = 2;
        w.network.fatFactor = 2;
        w.network.endpointsPerSwitch = 4;
        w.network.fatLinkPolicy = config::FatLinkPolicy::LeastLoaded;
        w.traffic.inputLoad = 0.8;
        w.traffic.realTimeFraction = 0.6;
        w.traffic.warmupFrames = 2;
        w.traffic.measuredFrames = 3;
        w.timeScale = 0.05;
        w.shards = 2;
    }
    return w;
}

/** Host time of each setup stage, in seconds. */
struct SetupTimes
{
    double total = 0.0;
    double build = 0.0;
    double plan = 0.0;
    double bounds = 0.0;
    double sources = 0.0;
};

/**
 * One simulation, set up stage by stage through the public API in
 * the order core::runExperiment uses, so the RNG splits - and hence
 * every model output - match it exactly. Members are declared so
 * that sources die before the network, and the network before the
 * kernels and the metrics hub it references.
 */
class Simulation
{
  public:
    Simulation(const Workload& w, std::uint64_t seed, int shards)
    {
        const double t0 = nowSeconds();
        traffic_ = w.traffic;
        traffic_.frameBytesMean *= w.timeScale;
        traffic_.frameBytesStddev *= w.timeScale;
        traffic_.frameInterval = static_cast<sim::Tick>(
            static_cast<double>(traffic_.frameInterval) * w.timeScale);
        w.router.validate();
        traffic_.validate();
        w.network.validate(w.router.numPorts);

        plan_ = network::planShards(w.network, shards,
                                    std::thread::hardware_concurrency());
        for (int s = 0; s < plan_.numShards; ++s) {
            const std::uint64_t shard_seed = s == 0
                ? seed
                : seed
                    ^ (0x9e3779b97f4a7c15ULL
                       * static_cast<std::uint64_t>(s));
            owned_.push_back(std::make_unique<sim::Simulator>(shard_seed));
            sims_.push_back(owned_.back().get());
        }
        sim::Simulator& root = *sims_[0];

        const double t_build = nowSeconds();
        sim::Rng net_rng = root.rng().split();
        net_ = std::make_unique<network::Network>(
            sims_, plan_, w.router, w.network, metrics_, net_rng);

        const double t_plan = nowSeconds();
        sim::Rng mix_rng = root.rng().split();
        mix_ = traffic::planMix(w.router, traffic_, net_->numNodes(),
                                mix_rng);

        const double t_bounds = nowSeconds();
        bounds_ = calculus::computeBounds(w.router, traffic_, w.network,
                                          mix_.streams);

        const double t_sources = nowSeconds();
        rt_.reserve(mix_.streams.size());
        for (const traffic::Stream& stream : mix_.streams) {
            rt_.push_back(std::make_unique<traffic::FrameSource>(
                net_->simOfNode(stream.src.value()), stream, traffic_,
                w.router.flitSizeBits, net_->ni(stream.src.value()),
                root.rng().split()));
        }
        const int total_frames =
            traffic_.warmupFrames + traffic_.measuredFrames;
        const sim::Tick horizon = static_cast<sim::Tick>(total_frames + 1)
            * traffic_.frameInterval;
        if (mix_.beInterval != sim::kTickNever) {
            for (int node = 0; node < net_->numNodes(); ++node) {
                be_.push_back(std::make_unique<traffic::BestEffortSource>(
                    net_->simOfNode(node), sim::StreamId(1000000 + node),
                    sim::NodeId(node), net_->numNodes(),
                    traffic_.beMessageFlits, mix_.beInterval, horizon,
                    mix_.partition.beFirst, mix_.partition.beCount,
                    net_->ni(node), root.rng().split()));
            }
        }
        for (auto& source : rt_)
            source->start();
        for (auto& source : be_)
            source->start();
        metrics_.enable(static_cast<sim::Tick>(traffic_.warmupFrames + 1)
                        * traffic_.frameInterval);
        cap_ = horizon * 8 + 100 * sim::kMillisecond;
        const double t_end = nowSeconds();

        times_.total = t_end - t0;
        times_.build = t_plan - t_build;
        times_.plan = t_bounds - t_plan;
        times_.bounds = t_sources - t_bounds;
        times_.sources = t_end - t_sources;
    }

    ~Simulation()
    {
        // A truncated run leaves events behind; unhook them so the
        // components tear down cleanly.
        for (sim::Simulator* shard : sims_)
            shard->queue().clear();
    }

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    const SetupTimes& times() const { return times_; }
    int numShards() const { return plan_.numShards; }
    sim::Simulator& root() { return *sims_[0]; }
    sim::Tick cap() const { return cap_; }

    /** Simulator::run or PdesExecutor::run to the cap; host seconds. */
    double
    run(std::vector<sim::ShardRunStats>* shard_stats)
    {
        if (plan_.trivial()) {
            const double t0 = nowSeconds();
            root().run(cap_);
            return nowSeconds() - t0;
        }
        sim::PdesExecutor executor(sims_, net_->minCrossShardDelay());
        for (const network::Network::CrossChannel& channel :
             net_->crossChannels()) {
            router::Link* link = channel.link;
            executor.addMailbox(
                channel.consumerShard,
                channel.isFlit
                    ? std::function<std::uint64_t()>(
                          [link] { return link->flushFlitOutbox(); })
                    : std::function<std::uint64_t()>(
                          [link] { return link->flushCreditOutbox(); }));
        }
        const double t0 = nowSeconds();
        executor.run(cap_);
        const double elapsed = nowSeconds() - t0;
        *shard_stats = executor.stats();
        return elapsed;
    }

    /** Writes the run's model outputs and kernel counts as JSON
     *  members (no braces). */
    std::string
    outputsJson()
    {
        bool truncated = false;
        std::uint64_t events = 0;
        std::uint64_t elided = 0;
        for (sim::Simulator* shard : sims_) {
            truncated |=
                !shard->queue().empty() || shard->lazyTickPending();
            events += shard->eventsFired();
            elided += shard->elidedEvents();
        }
        std::uint64_t injected = 0;
        for (int node = 0; node < net_->numNodes(); ++node)
            injected += net_->ni(node).flitsInjected();

        stats::Registry registry;
        net_->registerStats(registry);
        double alloc_waits = 0.0;
        double headers = 0.0;
        double link_flits = 0.0;
        for (const stats::StatEntry& entry : registry.entries()) {
            const std::string& n = entry.name;
            auto endsWith = [&n](const char* suffix) {
                const std::size_t len = std::strlen(suffix);
                return n.size() >= len
                    && n.compare(n.size() - len, len, suffix) == 0;
            };
            if (endsWith(".allocation_waits"))
                alloc_waits += entry.value();
            else if (endsWith(".headers_routed"))
                headers += entry.value();
            else if (n.rfind("link.", 0) == 0 && endsWith(".flits"))
                link_flits += entry.value();
        }

        const auto& frames = metrics_.frames();
        const double d = frames.meanIntervalMs();
        const double sd = frames.stddevIntervalMs();
        const std::uint64_t samples = frames.sampleCount();
        const std::uint64_t frames_delivered = frames.framesDelivered();
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "\"outputs\": {\"mean_interval_ms\": %.17g, "
            "\"stddev_interval_ms\": %.17g, \"be_latency_us\": %.17g, "
            "\"be_latency_p99_us\": %.17g, "
            "\"rt_message_latency_us\": %.17g, "
            "\"interval_samples\": %llu, \"frames_delivered\": %llu, "
            "\"be_messages\": %llu, \"flits_delivered\": %llu, "
            "\"truncated\": %s}, "
            "\"events\": %llu, \"elided\": %llu, "
            "\"flits_injected\": %llu, \"rt_streams\": %zu, "
            "\"frames_per_stream\": %d, \"alloc_waits\": %.17g, "
            "\"headers_routed\": %.17g, \"link_flits\": %.17g",
            d, sd, metrics_.beLatency().mean(),
            metrics_.beLatencyHistogram().quantile(0.99),
            metrics_.rtMessageLatency().mean(),
            static_cast<unsigned long long>(samples),
            static_cast<unsigned long long>(frames_delivered),
            static_cast<unsigned long long>(metrics_.beMessages()),
            static_cast<unsigned long long>(metrics_.flitsDelivered()),
            truncated ? "true" : "false",
            static_cast<unsigned long long>(events),
            static_cast<unsigned long long>(elided),
            static_cast<unsigned long long>(injected),
            mix_.streams.size(),
            traffic_.warmupFrames + traffic_.measuredFrames,
            alloc_waits, headers, link_flits);
        return buf;
    }

  private:
    config::TrafficConfig traffic_;
    network::ShardPlan plan_;
    std::vector<std::unique_ptr<sim::Simulator>> owned_;
    std::vector<sim::Simulator*> sims_;
    network::MetricsHub metrics_;
    std::unique_ptr<network::Network> net_;
    traffic::MixPlan mix_;
    calculus::BoundsReport bounds_;
    std::vector<std::unique_ptr<traffic::FrameSource>> rt_;
    std::vector<std::unique_ptr<traffic::BestEffortSource>> be_;
    sim::Tick cap_ = 0;
    SetupTimes times_;
};

std::string
setupJson(const SetupTimes& t)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "\"setup_s\": %.9g, \"build_s\": %.9g, "
                  "\"plan_s\": %.9g, \"bounds_s\": %.9g, "
                  "\"sources_s\": %.9g",
                  t.total, t.build, t.plan, t.bounds, t.sources);
    return buf;
}

std::string
shardStatsJson(const std::vector<sim::ShardRunStats>& stats)
{
    std::string out = "\"shard_stats\": [";
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const sim::ShardRunStats& s = stats[i];
        char buf[400];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"epochs\": %llu, \"events\": %llu, "
            "\"mailbox_items\": %llu, \"ff_epochs\": %llu, "
            "\"run_s\": %.9g, \"blocked_s\": %.9g}",
            i == 0 ? "" : ", ",
            static_cast<unsigned long long>(s.epochs),
            static_cast<unsigned long long>(s.eventsFired),
            static_cast<unsigned long long>(s.mailboxItems),
            static_cast<unsigned long long>(s.fastForwardEpochs),
            s.runSeconds, s.blockedSeconds);
        out += buf;
    }
    return out + "]";
}

/** One untraced simulation, as JSON members (no braces). */
std::string
untracedRun(const Workload& w, std::uint64_t seed, int shards)
{
    Simulation simulation(w, seed, shards);
    std::vector<sim::ShardRunStats> stats;
    const double run_s = simulation.run(&stats);
    char head[160];
    std::snprintf(head, sizeof(head),
                  "\"traced\": false, \"shards\": %d, \"run_s\": %.9g, ",
                  simulation.numShards(), run_s);
    return head + setupJson(simulation.times()) + ", "
        + shardStatsJson(stats) + ", " + simulation.outputsJson();
}

/** Event classes the traced loop buckets step time into. */
constexpr const char* kClasses[] = {
    "RouterPortEvent",       "RouterVcEvent",
    "Link::deliverFlits",    "Link::deliverCredits",
    "NetworkInterface::mux", "FrameSource",
    "BestEffortSource",      "other",
};
constexpr int kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

int
classOf(const char* name)
{
    for (int c = 0; c + 1 < kNumClasses; ++c) {
        if (std::strcmp(name, kClasses[c]) == 0)
            return c;
    }
    return kNumClasses - 1;
}

/**
 * One single-shard simulation, as JSON members (no braces), run by a
 * peekEarliest() + step() loop
 * that charges each step to the class of its leading event. A batch
 * step (one router or NI draining every same-tick event aimed at it)
 * is charged whole to its leading event's class.
 */
std::string
tracedRun(const Workload& w, std::uint64_t seed)
{
    Simulation simulation(w, seed, 1);
    sim::Simulator& sim = simulation.root();
    sim::EventQueue& queue = sim.queue();
    const sim::Tick cap = simulation.cap();

    // Step-time classification by name pointer: each event class
    // returns one string literal, so a short pointer cache avoids a
    // strcmp per step.
    struct Seen
    {
        const char* name;
        int cls;
    };
    std::vector<Seen> seen;
    double class_s[kNumClasses] = {};
    std::uint64_t class_events[kNumClasses] = {};
    std::uint64_t steps = 0;
    std::uint64_t fired_in_steps = 0;
    double near_sum = 0.0;
    double far_sum = 0.0;

    const double loop_start = nowSeconds();
    for (;;) {
        sim::Event* event = queue.peekEarliest();
        if (event == nullptr || event->when() > cap)
            break;
        near_sum += static_cast<double>(queue.nearSize());
        far_sum += static_cast<double>(queue.farSize());
        const char* name = event->name();
        int cls = -1;
        for (const Seen& s : seen) {
            if (s.name == name) {
                cls = s.cls;
                break;
            }
        }
        if (cls < 0) {
            cls = classOf(name);
            seen.push_back({name, cls});
        }
        const std::uint64_t fired0 = sim.eventsFired();
        const std::uint64_t elided0 = sim.elidedEvents();
        const double t0 = nowSeconds();
        sim.step();
        const double t1 = nowSeconds();
        const std::uint64_t fired = sim.eventsFired() - fired0;
        class_s[cls] += t1 - t0;
        class_events[cls] += fired;
        fired_in_steps += fired - (sim.elidedEvents() - elided0);
        ++steps;
    }
    sim.run(cap);
    const double loop_end = nowSeconds();

    char head[512];
    std::snprintf(head, sizeof(head),
                  "\"traced\": true, \"shards\": 1, "
                  "\"loop_s\": %.9g, "
                  "\"steps\": %llu, \"fired_in_steps\": %llu, "
                  "\"near_depth_sum\": %.17g, \"far_depth_sum\": %.17g, ",
                  loop_end - loop_start,
                  static_cast<unsigned long long>(steps),
                  static_cast<unsigned long long>(fired_in_steps),
                  near_sum, far_sum);
    std::string out = head;
    out += "\"classes\": {";
    for (int c = 0; c < kNumClasses; ++c) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"s\": %.9g, \"events\": %llu}",
                      c == 0 ? "" : ", ", kClasses[c], class_s[c],
                      static_cast<unsigned long long>(class_events[c]));
        out += buf;
    }
    out += "}, " + setupJson(simulation.times()) + ", "
        + simulation.outputsJson();
    return out;
}

/**
 * Peak resident memory of this process in MiB. Prefers Linux's
 * VmHWM: getrusage's ru_maxrss survives execve, so it would report
 * the launching process's peak when that was larger.
 */
double
peakRssMb()
{
    if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long long kib = -1;
        while (std::fgets(line, sizeof(line), status) != nullptr) {
            if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1)
                break;
        }
        std::fclose(status);
        if (kib > 0)
            return static_cast<double>(kib) / 1024.0;
    }
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <switch-vc|torus8x8-dor|"
                 "fatmesh-2shard> --seed <n> [--shards <n>] "
                 "[--traced <0|1>]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench_driver: built with MW_DEBUG_ASSERT "
                         "live (no NDEBUG); refusing to measure. Build "
                         "with CMAKE_BUILD_TYPE=Release.\n");
    return 3;
#endif
    std::string workload_name;
    unsigned long long seed = 0;
    bool have_seed = false;
    long shards = 0; // 0: the workload's own shard count
    long traced = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* rest = nullptr;
        if (flag == "--workload") {
            workload_name = value;
            continue;
        }
        if (flag == "--seed") {
            // Any 64-bit seed; strtoull would silently negate a '-'.
            errno = 0;
            seed = std::strtoull(value, &rest, 10);
            have_seed = value[0] != '-' && errno != ERANGE;
        }
        else if (flag == "--shards")
            shards = std::strtol(value, &rest, 10);
        else if (flag == "--traced")
            traced = std::strtol(value, &rest, 10);
        else
            return usage(argv[0]);
        if (rest == value || *rest != '\0')
            return usage(argv[0]);
    }
    const Workload w = makeWorkload(workload_name);
    if (argc % 2 == 0 || w.name == nullptr || !have_seed || shards < 0
        || shards > 64 || (traced != 0 && traced != 1))
        return usage(argv[0]);
    const auto run_seed = static_cast<std::uint64_t>(seed);

    const std::string members = traced
        ? tracedRun(w, run_seed)
        : untracedRun(w, run_seed,
                      shards > 0 ? static_cast<int>(shards) : w.shards);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"peak_rss_mb\": %.6f, %s}\n",
                w.name, static_cast<unsigned long long>(run_seed),
                peakRssMb(), members.c_str());
    return 0;
}
