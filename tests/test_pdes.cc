/**
 * @file
 * Conservative-parallel execution tests.
 *
 * Three layers:
 *
 *  1. Partition planner units: single switch stays on one shard, a
 *     mesh is cut into balanced contiguous strips, requested counts
 *     clamp to the router count, auto mode follows the usable-CPU
 *     count. Plus an oversubscribed stress run of the epoch barrier.
 *
 *  2. PdesExecutor + cross-shard Link mechanics in isolation: a
 *     hand-wired two-shard channel delivers flits and credits at
 *     exactly the ticks the single-kernel link would, in order.
 *
 *  3. The headline determinism contract: for the golden miniature
 *     configurations (the single-switch Fig-3 setup and the 2x2
 *     fat-mesh Fig-9 setup, plus a 4x2 mesh that admits 8 shards),
 *     modelDigest() and kernelDigest() are identical across --shards
 *     in {1,2,4,8}.
 *     This is what lets sharded runs substitute for the
 *     single-threaded oracle everywhere.
 */

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "network/partition.hh"
#include "router/link.hh"
#include "sim/cpus.hh"
#include "sim/pdes.hh"
#include "sim/simulator.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::core;

// --- Partition planner -----------------------------------------------------

config::NetworkConfig
meshConfig(int width, int height)
{
    config::NetworkConfig net;
    net.topology = config::TopologyKind::FatMesh;
    net.meshWidth = width;
    net.meshHeight = height;
    net.fatFactor = 2;
    net.endpointsPerSwitch = 4;
    return net;
}

TEST(Partition, SingleSwitchIsAlwaysTrivial)
{
    config::NetworkConfig net;
    net.topology = config::TopologyKind::SingleSwitch;
    const network::ShardPlan plan = network::planShards(net, 8, 16);
    EXPECT_TRUE(plan.trivial());
    EXPECT_EQ(plan.numShards, 1);
}

TEST(Partition, MeshSplitsIntoBalancedContiguousStrips)
{
    const network::ShardPlan plan =
        network::planShards(meshConfig(4, 4), 4, 16);
    ASSERT_EQ(plan.numShards, 4);
    ASSERT_EQ(plan.routerShard.size(), 16u);
    std::vector<int> per_shard(4, 0);
    for (int r = 0; r < 16; ++r) {
        const int shard = plan.shardOfRouter(r);
        ++per_shard[static_cast<std::size_t>(shard)];
        // Contiguous: shard ids never decrease along the row-major
        // router index.
        if (r > 0) {
            EXPECT_GE(shard, plan.shardOfRouter(r - 1));
        }
    }
    for (int count : per_shard)
        EXPECT_EQ(count, 4);
}

TEST(Partition, UnevenCountsStayBalanced)
{
    // 8 routers over 3 shards: sizes must be 3/3/2 in some order.
    const network::ShardPlan plan =
        network::planShards(meshConfig(4, 2), 3, 16);
    ASSERT_EQ(plan.numShards, 3);
    std::vector<int> per_shard(3, 0);
    for (int r = 0; r < 8; ++r)
        ++per_shard[static_cast<std::size_t>(plan.shardOfRouter(r))];
    for (int count : per_shard) {
        EXPECT_GE(count, 2);
        EXPECT_LE(count, 3);
    }
}

TEST(Partition, RequestClampsToRouterCount)
{
    const network::ShardPlan plan =
        network::planShards(meshConfig(2, 2), 64, 16);
    EXPECT_EQ(plan.numShards, 4);
}

TEST(Partition, AutoModeFollowsHardwareThreads)
{
    EXPECT_EQ(network::planShards(meshConfig(4, 4), 0, 8).numShards, 8);
    EXPECT_EQ(network::planShards(meshConfig(2, 2), 0, 8).numShards, 4);
    EXPECT_TRUE(network::planShards(meshConfig(4, 4), 0, 1).trivial());
}

#ifdef __linux__
TEST(Partition, UsableCpusFollowsTheAffinityMask)
{
    // Auto shard and job counts must see what taskset or a cpuset
    // leaves usable, not every installed CPU.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(sim::usableCpus(), CPU_COUNT(&saved));

    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const int pinned = sim::usableCpus();
    const network::ShardPlan plan =
        network::planShards(meshConfig(4, 4), 0,
                            static_cast<unsigned>(pinned));
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

    EXPECT_EQ(pinned, 1);
    EXPECT_TRUE(plan.trivial());
}
#endif

// --- Epoch barrier -----------------------------------------------------------

TEST(PdesEpochBarrier, NoThreadLeavesAPhaseBeforeAllArrive)
{
    // Oversubscribed on purpose: at least 2 threads per usable CPU,
    // so waiters must yield or park for the stragglers to run at all.
    const int n = std::max(8, 2 * sim::usableCpus());
    constexpr int kRounds = 10000;
    // Two phases per round on one barrier, as in the executor.
    sim::EpochBarrier barrier(n);
    std::atomic<std::uint64_t> arrivals{0};
    // Plain (non-atomic) slots: each thread writes its own before the
    // first phase and reads a neighbour's after it, which is a data
    // race (caught by -fsanitize=thread) unless the barrier orders
    // them.
    std::vector<int> slots(static_cast<std::size_t>(n), -1);
    std::atomic<int> violations{0};

    auto worker = [&](int index) {
        const auto self = static_cast<std::size_t>(index);
        const auto neighbour = static_cast<std::size_t>((index + 1) % n);
        for (int k = 0; k < kRounds; ++k) {
            slots[self] = k;
            arrivals.fetch_add(1, std::memory_order_relaxed);
            barrier.arriveAndWait();
            // Every thread has arrived for round k, and none can have
            // arrived for round k+1 (it needs our second arrival).
            const std::uint64_t seen =
                arrivals.load(std::memory_order_relaxed);
            const auto all = static_cast<std::uint64_t>(k + 1)
                * static_cast<std::uint64_t>(n);
            if (seen != all || slots[neighbour] != k)
                violations.fetch_add(1, std::memory_order_relaxed);
            barrier.arriveAndWait();
        }
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i)
        threads.emplace_back(worker, i);
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(arrivals.load(), static_cast<std::uint64_t>(kRounds)
                                   * static_cast<std::uint64_t>(n));
}

// --- Executor + cross-shard link mechanics ---------------------------------

/** Sink that acks every flit with a credit, like a real NI. */
class CountingReceiver final : public router::FlitReceiver
{
  public:
    CountingReceiver(sim::Simulator& simulator, router::Link& link)
        : simulator_(simulator), link_(link)
    {
    }

    void
    receiveFlit(int, const router::Flit& flit, int vc) override
    {
        arrivals.push_back({simulator_.now(), flit.index, vc});
        link_.sendCredit(vc);
    }

    struct Arrival
    {
        sim::Tick when;
        int index;
        int vc;
    };
    std::vector<Arrival> arrivals;

  private:
    sim::Simulator& simulator_;
    router::Link& link_;
};

class CountingCredits final : public router::CreditReceiver
{
  public:
    explicit CountingCredits(sim::Simulator& simulator)
        : simulator_(simulator)
    {
    }

    void
    creditReturned(int, int vc) override
    {
        credits.push_back({simulator_.now(), vc});
    }
    // Takes every credit as it falls due.
    std::uint64_t starvedVcs(int) const override { return kAllVcs; }

    struct Credit
    {
        sim::Tick when;
        int vc;
    };
    std::vector<Credit> credits;

  private:
    sim::Simulator& simulator_;
};

router::Flit
makeFlit(int index)
{
    router::Flit flit;
    flit.index = index;
    return flit;
}

TEST(PdesExecutor, CrossShardChannelDeliversOnSchedule)
{
    const sim::Tick delay = sim::nanoseconds(160);
    sim::Simulator sender_sim(1);
    sim::Simulator receiver_sim(2);

    router::Link link(sender_sim, delay, "x",
                      router::ChannelIds::forLinkIndex(0));
    link.bindShards(sender_sim, receiver_sim);
    ASSERT_TRUE(link.crossShard());

    CountingReceiver receiver(receiver_sim, link);
    CountingCredits credits(sender_sim);
    link.connectReceiver(&receiver);
    link.connectCreditReceiver(&credits);

    // Sender-side process: inject three flits at t=0, 40ns, 80ns,
    // all inside one lookahead window.
    int sent = 0;
    sim::CallbackEvent send_event(
        [&] {
            link.sendFlit(makeFlit(sent), sent % 2);
            if (++sent < 3)
                sender_sim.scheduleAfter(send_event,
                                         sim::nanoseconds(40));
        },
        "send");
    sender_sim.schedule(send_event, 0);

    sim::PdesExecutor executor({&sender_sim, &receiver_sim}, delay);
    executor.addMailbox(1, [&] { return link.flushFlitOutbox(); });
    executor.addMailbox(0, [&] { return link.flushCreditOutbox(); });
    executor.run(sim::microseconds(10));

    ASSERT_EQ(receiver.arrivals.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(receiver.arrivals[static_cast<std::size_t>(i)].when,
                  static_cast<sim::Tick>(i) * sim::nanoseconds(40)
                      + delay);
        EXPECT_EQ(receiver.arrivals[static_cast<std::size_t>(i)].index,
                  i);
    }
    // The sink acks each flit on delivery, so credits land one link
    // delay later, preserving order and VC.
    ASSERT_EQ(credits.credits.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(credits.credits[static_cast<std::size_t>(i)].when,
                  static_cast<sim::Tick>(i) * sim::nanoseconds(40)
                      + 2 * delay);
        EXPECT_EQ(credits.credits[static_cast<std::size_t>(i)].vc,
                  i % 2);
    }

    const std::vector<sim::ShardRunStats>& stats = executor.stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_GT(stats[0].epochs, 0u);
    EXPECT_EQ(stats[1].mailboxItems, 3u);  // flits into shard 1
    EXPECT_EQ(stats[0].mailboxItems, 3u);  // credits back to shard 0
}

TEST(PdesExecutor, IndependentShardsFastForwardThroughIdleGaps)
{
    sim::Simulator a(1);
    sim::Simulator b(2);
    std::vector<sim::Tick> fired;
    sim::CallbackEvent ea([&] { fired.push_back(a.now()); }, "a");
    sim::CallbackEvent eb([&] { fired.push_back(b.now()); }, "b");
    a.schedule(ea, sim::milliseconds(5));
    b.schedule(eb, sim::milliseconds(9));

    // Tiny lookahead + huge idle gaps: without fast-forward this
    // would grind through millions of empty epochs.
    sim::PdesExecutor executor({&a, &b}, sim::nanoseconds(160));
    executor.run(sim::milliseconds(10));

    EXPECT_EQ(fired.size(), 2u);
    EXPECT_LE(executor.stats()[0].epochs, 4u);
}

TEST(PdesExecutor, FastForwardCountersTrackIdleWindowJumps)
{
    sim::Simulator a(1);
    sim::Simulator b(2);
    std::vector<sim::Tick> fired;
    sim::CallbackEvent ea([&] { fired.push_back(a.now()); }, "a");
    sim::CallbackEvent eb([&] { fired.push_back(b.now()); }, "b");
    a.schedule(ea, sim::milliseconds(5));
    b.schedule(eb, sim::milliseconds(9));

    sim::PdesExecutor executor({&a, &b}, sim::nanoseconds(160));
    executor.run(sim::milliseconds(10));

    EXPECT_EQ(fired.size(), 2u);
    // One real jump: epoch 1 runs its 160 ns window at 5 ms, then
    // the min-reduction lands the next epoch straight on 9 ms. The
    // initial gap to 5 ms is the start-time computation, not a jump.
    const std::vector<sim::ShardRunStats>& stats = executor.stats();
    EXPECT_GE(stats[0].fastForwardEpochs, 1u);
    EXPECT_GT(stats[0].fastForwardTicks,
              static_cast<std::uint64_t>(sim::milliseconds(3)));
    // The jump sequence is global: every shard records the same one.
    EXPECT_EQ(stats[0].fastForwardEpochs, stats[1].fastForwardEpochs);
    EXPECT_EQ(stats[0].fastForwardTicks, stats[1].fastForwardTicks);
}

TEST(PdesExecutor, MailboxArrivalExactlyAtJumpTargetFires)
{
    const sim::Tick delay = sim::nanoseconds(160);
    sim::Simulator sender_sim(1);
    sim::Simulator receiver_sim(2);

    router::Link link(sender_sim, delay, "x",
                      router::ChannelIds::forLinkIndex(0));
    link.bindShards(sender_sim, receiver_sim);
    CountingReceiver receiver(receiver_sim, link);
    CountingCredits credits(sender_sim);
    link.connectReceiver(&receiver);
    link.connectCreditReceiver(&credits);

    // The sender idles for 3 ms, then sends one flit. Its arrival
    // lands at exactly epoch_start + lookahead - the first tick of
    // the next epoch, i.e. the jump target of the min-reduction -
    // and must fire there, not be skipped over.
    const sim::Tick t0 = sim::milliseconds(3);
    sim::CallbackEvent send_event([&] { link.sendFlit(makeFlit(0), 0); },
                                  "send");
    sender_sim.schedule(send_event, t0);

    sim::PdesExecutor executor({&sender_sim, &receiver_sim}, delay);
    executor.addMailbox(1, [&] { return link.flushFlitOutbox(); });
    executor.addMailbox(0, [&] { return link.flushCreditOutbox(); });
    executor.run(sim::milliseconds(10));

    ASSERT_EQ(receiver.arrivals.size(), 1u);
    EXPECT_EQ(receiver.arrivals[0].when, t0 + delay);
    // The receiver's ack credit exercises the same boundary on the
    // way back.
    ASSERT_EQ(credits.credits.size(), 1u);
    EXPECT_EQ(credits.credits[0].when, t0 + 2 * delay);
    // Back-to-back windows (arrival exactly at window_end + 1) are
    // not jumps; the counters must stay quiet for them.
    for (const sim::ShardRunStats& s : executor.stats())
        EXPECT_EQ(s.fastForwardTicks, 0u);
}

// --- Whole-experiment shard invariance -------------------------------------

/** Fig-3 miniature: 8-port single switch under the paper's mix. */
ExperimentConfig
fig3Miniature()
{
    ExperimentConfig cfg;
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

/** Fig-9 miniature: 2x2 fat mesh, mixed traffic. */
ExperimentConfig
fig9Miniature()
{
    ExperimentConfig cfg = fig3Miniature();
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

/** 4x2 mesh: 8 routers, so every shard count in {1,2,4,8} is real. */
ExperimentConfig
wideMeshMiniature()
{
    ExperimentConfig cfg = fig9Miniature();
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 2;
    // Interior routers have three mesh directions here: 4 endpoint
    // ports + 3 x fat 2 = 10 ports.
    cfg.router.numPorts = 10;
    cfg.seed = 11;
    return cfg;
}

/** 4x4 mesh on the routing-policy layer (golden G4's shape). */
ExperimentConfig
meshMiniature()
{
    ExperimentConfig cfg = fig3Miniature();
    cfg.network.topology = config::TopologyKind::Mesh;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 13;
    return cfg;
}

/** 4x4 torus, dateline VC classes (golden G5's shape). */
ExperimentConfig
torusMiniature()
{
    ExperimentConfig cfg = meshMiniature();
    cfg.network.topology = config::TopologyKind::Torus;
    cfg.seed = 17;
    return cfg;
}

/** clos(2,2,4): 6 routers, multi-up routing (golden G6's shape). */
ExperimentConfig
closMiniature()
{
    ExperimentConfig cfg = fig3Miniature();
    cfg.network.topology = config::TopologyKind::Clos;
    cfg.network.closM = 2;
    cfg.network.closN = 2;
    cfg.network.closR = 4;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 19;
    return cfg;
}

void
expectShardInvariant(const ExperimentConfig& base)
{
    ExperimentConfig cfg = base;
    cfg.shards = 1;
    const ExperimentResult oracle = runExperiment(cfg);
    ASSERT_GT(oracle.eventsFired, 0u);

    for (int shards : {2, 4, 8}) {
        cfg.shards = shards;
        const ExperimentResult sharded = runExperiment(cfg);
        EXPECT_EQ(sharded.modelDigest(), oracle.modelDigest())
            << "shards=" << shards;
        EXPECT_EQ(sharded.kernelDigest(), oracle.kernelDigest())
            << "shards=" << shards;
        EXPECT_EQ(sharded.eventsFired, oracle.eventsFired)
            << "shards=" << shards;
        EXPECT_EQ(sharded.intervalSamples, oracle.intervalSamples)
            << "shards=" << shards;
    }
}

TEST(PdesDeterminism, Fig3MiniatureHashIsShardInvariant)
{
    // Single switch: every shard request resolves to the trivial
    // plan, so this pins the request-handling path.
    expectShardInvariant(fig3Miniature());
}

TEST(PdesDeterminism, Fig9MiniatureHashIsShardInvariant)
{
    // The random policy's per-switch route RNGs are the
    // shard-sensitive piece: each draw must stay on its switch.
    for (const config::FatLinkPolicy policy :
         {config::FatLinkPolicy::LeastLoaded,
          config::FatLinkPolicy::Static,
          config::FatLinkPolicy::Random}) {
        SCOPED_TRACE(config::toString(policy));
        ExperimentConfig cfg = fig9Miniature();
        cfg.network.fatLinkPolicy = policy;
        expectShardInvariant(cfg);
    }
}

TEST(PdesDeterminism, WideMeshHashIsShardInvariantThrough8Shards)
{
    expectShardInvariant(wideMeshMiniature());
}

/**
 * The topology-graph shapes must satisfy the same contract as the
 * legacy ones: one digest pair per configuration, bit-identical
 * across --shards in {1,2,4,8}. The single-shard digests are pinned
 * as goldens G4-G6 in test_determinism.cc, so these tests tie the
 * sharded executor to the same values.
 */
TEST(PdesDeterminism, MeshHashIsShardInvariant)
{
    expectShardInvariant(meshMiniature());
}

TEST(PdesDeterminism, TorusHashIsShardInvariant)
{
    expectShardInvariant(torusMiniature());
}

TEST(PdesDeterminism, ClosHashIsShardInvariant)
{
    // 6 routers: shards 8 clamps to 6, putting both spines alone in
    // the tail shards - the heaviest cross-shard traffic pattern.
    expectShardInvariant(closMiniature());
}

TEST(PdesDeterminism, AdaptiveTorusHashIsShardInvariant)
{
    // Adaptive routing reads run-time VC occupancy and output loads
    // at route time; those are part of the deterministic state, so
    // sharding must not move them.
    ExperimentConfig cfg = torusMiniature();
    cfg.network.routing = config::RoutingKind::Adaptive;
    expectShardInvariant(cfg);
}

TEST(PdesDeterminism, AutoShardCountIsAlsoInvariant)
{
    ExperimentConfig cfg = fig9Miniature();
    cfg.shards = 1;
    const ExperimentResult oracle = runExperiment(cfg);
    cfg.shards = 0; // one shard per usable CPU, clamped
    const ExperimentResult autos = runExperiment(cfg);
    EXPECT_EQ(autos.modelDigest(), oracle.modelDigest());
    EXPECT_EQ(autos.kernelDigest(), oracle.kernelDigest());
}

TEST(PdesDeterminism, ShardedRunReportsExecutorStats)
{
    ExperimentConfig cfg = fig9Miniature();
    cfg.shards = 4;
    const ExperimentResult r = runExperiment(cfg);
    ASSERT_NE(r.observations, nullptr);
    ASSERT_EQ(r.observations->shards.size(), 4u);
    // Shard stats alone attach no observer.
    EXPECT_FALSE(r.observations->trace.has_value());
    EXPECT_FALSE(r.observations->telemetry.has_value());
    std::uint64_t events = 0;
    std::uint64_t mailbox_items = 0;
    for (const sim::ShardRunStats& s : r.observations->shards) {
        events += s.eventsFired;
        mailbox_items += s.mailboxItems;
        EXPECT_GT(s.epochs, 0u);
        EXPECT_GT(s.maxQueueDepth, 0u);
    }
    EXPECT_EQ(events, r.eventsFired);
    EXPECT_GT(mailbox_items, 0u);
}

TEST(PdesDeterminism, TelemetryMergesAcrossShardsWithoutPerturbing)
{
    ExperimentConfig cfg = fig9Miniature();
    cfg.obs.telemetry = true;

    cfg.shards = 1;
    const ExperimentResult single = runExperiment(cfg);
    cfg.shards = 4;
    const ExperimentResult sharded = runExperiment(cfg);

    // Telemetry on, sharded: the deterministic outputs still match.
    EXPECT_EQ(sharded.modelDigest(), single.modelDigest());
    EXPECT_EQ(sharded.kernelDigest(), single.kernelDigest());

    ASSERT_NE(single.observations, nullptr);
    ASSERT_NE(sharded.observations, nullptr);
    ASSERT_TRUE(single.observations->telemetry.has_value());
    ASSERT_TRUE(sharded.observations->telemetry.has_value());
    const obs::TelemetryReport& a = *single.observations->telemetry;
    const obs::TelemetryReport& b = *sharded.observations->telemetry;
    ASSERT_EQ(a.streams.size(), b.streams.size());
    EXPECT_EQ(a.worstStream, b.worstStream);
    EXPECT_EQ(a.worstStddevMs, b.worstStddevMs);
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
        const obs::StreamSeries& sa = a.streams[i];
        const obs::StreamSeries& sb = b.streams[i];
        EXPECT_EQ(sa.stream, sb.stream);
        EXPECT_EQ(sa.frames, sb.frames);
        EXPECT_EQ(sa.intervalCount, sb.intervalCount);
        EXPECT_EQ(sa.meanIntervalMs, sb.meanIntervalMs);
        EXPECT_EQ(sa.stddevIntervalMs, sb.stddevIntervalMs);
        EXPECT_EQ(sa.messages, sb.messages);
        EXPECT_EQ(sa.worstMessageDelayUs, sb.worstMessageDelayUs);
        ASSERT_EQ(sa.samples.size(), sb.samples.size())
            << "stream " << sa.stream.value();
        for (std::size_t w = 0; w < sa.samples.size(); ++w) {
            EXPECT_EQ(sa.samples[w].windowStart,
                      sb.samples[w].windowStart);
            EXPECT_EQ(sa.samples[w].frames, sb.samples[w].frames);
            EXPECT_EQ(sa.samples[w].flits, sb.samples[w].flits);
            EXPECT_EQ(sa.samples[w].intervalCount,
                      sb.samples[w].intervalCount);
        }
    }
}

} // namespace
