/**
 * @file
 * Per-link credit conservation over whole-network runs.
 *
 * Every link that carries credits - the NI -> router injection links
 * and the router -> router channels - must conserve, per VC, the
 * downstream input buffer's slots:
 *
 *   sender credits + credits on the wire + flits on the wire
 *     + receiver input-buffer occupancy == buffer depth
 *
 * "On the wire" counts a channel's pipe and its cross-shard outbox;
 * a credit counts there until the sender applies it. A router -> NI
 * ejection link carries none: the sink drains each flit on arrival,
 * so the port feeding it must hold exactly flitBufferDepth credits,
 * with none on the wire. The check runs at regular steps of the G1
 * single switch, the G3 fat mesh on two PDES shards and the G5 torus
 * (tests/test_determinism.cc).
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "network/metrics.hh"
#include "network/network.hh"
#include "network/partition.hh"
#include "network/topology.hh"
#include "sim/pdes.hh"
#include "sim/simulator.hh"
#include "traffic/best_effort_source.hh"
#include "traffic/frame_source.hh"
#include "traffic/traffic_mix.hh"

namespace {

using namespace mediaworm;

core::ExperimentConfig
g1()
{
    core::ExperimentConfig cfg;
    cfg.router.numPorts = 8;
    cfg.router.numVcs = 16;
    cfg.router.flitBufferDepth = 20;
    cfg.router.scheduler = config::SchedulerKind::VirtualClock;
    cfg.traffic.inputLoad = 0.9;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.05;
    cfg.seed = 42;
    return cfg;
}

core::ExperimentConfig
g3()
{
    core::ExperimentConfig cfg = g1();
    cfg.network.topology = config::TopologyKind::FatMesh;
    cfg.network.meshWidth = 2;
    cfg.network.meshHeight = 2;
    cfg.network.fatFactor = 2;
    cfg.network.endpointsPerSwitch = 4;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 7;
    return cfg;
}

core::ExperimentConfig
g5()
{
    core::ExperimentConfig cfg = g1();
    cfg.network.topology = config::TopologyKind::Torus;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 17;
    return cfg;
}

/**
 * One experiment, built in core::runExperiment's order (so its RNG
 * splits and traffic match the golden run), that can be advanced to
 * any time and inspected between steps.
 */
class SteppedRun
{
  public:
    explicit SteppedRun(const core::ExperimentConfig& cfg)
        : cfg_(cfg), traffic_(cfg.traffic.scaled(cfg.timeScale)),
          topo_(network::Topology::build(cfg.network,
                                         cfg.router.numPorts))
    {
        // An explicit shard count does not depend on the CPU count.
        const network::ShardPlan plan =
            network::planShards(cfg.network, cfg.shards, 64);
        for (int s = 0; s < plan.numShards; ++s) {
            owned_.push_back(std::make_unique<sim::Simulator>(
                s == 0 ? cfg.seed
                       : cfg.seed
                           ^ (0x9e3779b97f4a7c15ULL
                              * static_cast<std::uint64_t>(s))));
            sims_.push_back(owned_.back().get());
        }
        sim::Simulator& root = *sims_[0];
        sim::Rng net_rng = root.rng().split();
        net_ = std::make_unique<network::Network>(
            sims_, plan, cfg.router, cfg.network, metrics_, net_rng);
        sim::Rng mix_rng = root.rng().split();
        const traffic::MixPlan mix = traffic::planMix(
            cfg.router, traffic_, net_->numNodes(), mix_rng);
        for (const traffic::Stream& stream : mix.streams) {
            rt_.push_back(std::make_unique<traffic::FrameSource>(
                net_->simOfNode(stream.src.value()), stream, traffic_,
                cfg.router.flitSizeBits, net_->ni(stream.src.value()),
                root.rng().split()));
        }
        if (mix.beInterval != sim::kTickNever) {
            for (int node = 0; node < net_->numNodes(); ++node) {
                be_.push_back(std::make_unique<traffic::BestEffortSource>(
                    net_->simOfNode(node), sim::StreamId(1000000 + node),
                    sim::NodeId(node), net_->numNodes(),
                    traffic_.beMessageFlits, mix.beInterval,
                    traffic_.horizon(), mix.partition.beFirst,
                    mix.partition.beCount, net_->ni(node),
                    root.rng().split()));
            }
        }
        for (auto& source : rt_)
            source->start();
        for (auto& source : be_)
            source->start();
        metrics_.enable(traffic_.warmupEnd());

        if (!plan.trivial()) {
            executor_ = std::make_unique<sim::PdesExecutor>(
                sims_, net_->minCrossShardDelay());
            for (const network::Network::CrossChannel& channel :
                 net_->crossChannels()) {
                router::Link* link = channel.link;
                executor_->addMailbox(
                    channel.consumerShard,
                    channel.isFlit
                        ? std::function<std::uint64_t()>(
                              [link] { return link->flushFlitOutbox(); })
                        : std::function<std::uint64_t()>([link] {
                              return link->flushCreditOutbox();
                          }));
            }
        }
    }

    ~SteppedRun()
    {
        for (sim::Simulator* shard : sims_)
            shard->queue().clear();
    }

    int numShards() const { return static_cast<int>(sims_.size()); }
    sim::Tick horizon() const { return traffic_.horizon(); }

    /** Runs every shard up to and including @p until. */
    void
    runTo(sim::Tick until)
    {
        if (executor_)
            executor_->run(until);
        else
            sims_[0]->run(until);
    }

    /**
     * Checks conservation on every credit-carrying link and VC, and
     * the fixed credits of every ejection port; returns the flits and
     * credits found on the wire, so callers can tell a busy network
     * from an idle one.
     */
    int
    checkConservation(sim::Tick at)
    {
        const int nodes = net_->numNodes();
        const auto& links = net_->links();
        int on_wire = 0;
        const auto check = [&](const router::Link& link, int sender_credits,
                               int vc, int occupancy, int depth) {
            const int flits = link.flitsInFlight(vc);
            const int credits = link.creditsInFlight(vc);
            on_wire += flits + credits;
            EXPECT_EQ(sender_credits + credits + flits + occupancy, depth)
                << link.name() << " vc " << vc << " at tick " << at
                << ": sender " << sender_credits << ", credits "
                << credits << ", flits " << flits << ", buffered "
                << occupancy;
        };
        const int depth = cfg_.router.flitBufferDepth;
        for (int node = 0; node < nodes; ++node) {
            const router::Link& inj =
                *links[2 * static_cast<std::size_t>(node)];
            const router::Link& ej =
                *links[2 * static_cast<std::size_t>(node) + 1];
            EXPECT_EQ(inj.name(), "inj" + std::to_string(node));
            EXPECT_EQ(ej.name(), "ej" + std::to_string(node));
            const network::TopoEndpoint ep =
                topo_.endpoints()[static_cast<std::size_t>(node)];
            const router::WormholeRouter& sw = net_->router(ep.router);
            for (int v = 0; v < cfg_.router.numVcs; ++v) {
                check(inj, net_->ni(node).credits(v), v,
                      sw.inputOccupancy(ep.port, v), depth);
                EXPECT_EQ(sw.outputCredits(ep.port, v), depth)
                    << ej.name() << " vc " << v << " at tick " << at;
                EXPECT_EQ(ej.creditsInFlight(v), 0)
                    << ej.name() << " vc " << v << " at tick " << at;
                on_wire += ej.flitsInFlight(v);
            }
        }
        for (std::size_t i = 0; i < topo_.channels().size(); ++i) {
            const network::TopoChannel& ch = topo_.channels()[i];
            const router::Link& link =
                *links[2 * static_cast<std::size_t>(nodes) + i];
            for (int v = 0; v < cfg_.router.numVcs; ++v) {
                check(link,
                      net_->router(ch.srcRouter)
                          .outputCredits(ch.srcPort, v),
                      v,
                      net_->router(ch.dstRouter)
                          .inputOccupancy(ch.dstPort, v),
                      depth);
            }
        }
        return on_wire;
    }

  private:
    core::ExperimentConfig cfg_;
    config::TrafficConfig traffic_;
    network::Topology topo_;
    std::vector<std::unique_ptr<sim::Simulator>> owned_;
    std::vector<sim::Simulator*> sims_;
    network::MetricsHub metrics_;
    std::unique_ptr<network::Network> net_;
    std::vector<std::unique_ptr<traffic::FrameSource>> rt_;
    std::vector<std::unique_ptr<traffic::BestEffortSource>> be_;
    std::unique_ptr<sim::PdesExecutor> executor_;
};

/** Steps @p cfg's run to twice its injection horizon in 128 equal
 *  steps, checking conservation after each, and expects traffic on
 *  the wire at some step. */
void
expectConserved(const core::ExperimentConfig& cfg, int shards)
{
    SteppedRun run(cfg);
    ASSERT_EQ(run.numShards(), shards);
    constexpr int kSteps = 128;
    const sim::Tick step = 2 * run.horizon() / kSteps;
    int busiest = 0;
    for (int k = 1; k <= kSteps; ++k) {
        run.runTo(k * step);
        busiest = std::max(busiest, run.checkConservation(k * step));
        if (testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(busiest, 0);
}

TEST(CreditConservation, SingleSwitchG1)
{
    expectConserved(g1(), 1);
}

TEST(CreditConservation, FatMeshG3OnTwoShards)
{
    core::ExperimentConfig cfg = g3();
    cfg.shards = 2;
    expectConserved(cfg, 2);
}

TEST(CreditConservation, TorusG5)
{
    expectConserved(g5(), 1);
}

} // namespace
