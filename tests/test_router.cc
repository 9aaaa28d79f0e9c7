/**
 * @file
 * Behavioural tests for the MediaWorm wormhole router: routing,
 * wormhole output-VC holding, flit ordering, credit backpressure,
 * fat-channel selection and both crossbar organisations, driven by
 * hand-built flits over raw links.
 */

#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "config/router_config.hh"
#include "router/link.hh"
#include "router/wormhole_router.hh"
#include "sim/simulator.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::router;
using namespace mediaworm::sim;

/** Records every flit an output port delivers. */
class Sink final : public FlitReceiver
{
  public:
    void
    init(Simulator* simulator)
    {
        simulator_ = simulator;
    }

    void
    receiveFlit(const Flit& flit, int vc) override
    {
        arrivals.push_back({simulator_->now(), flit, vc});
    }

    struct Arrival
    {
        Tick when;
        Flit flit;
        int vc;
    };
    std::vector<Arrival> arrivals;

  private:
    Simulator* simulator_ = nullptr;
};

/** Swallows credits the router returns towards the sources. */
class CreditSink final : public CreditReceiver
{
  public:
    void creditReturned(int vc) override { ++credits[vc]; }
    std::map<int, int> credits;
};

class RouterTest : public testing::Test
{
  protected:
    static constexpr int kPorts = 4;
    static constexpr int kVcs = 4;
    static constexpr int kDepth = 8;
    static constexpr int kSinkDepth = 1 << 20;

    void
    build(config::CrossbarKind crossbar =
              config::CrossbarKind::Multiplexed,
          config::SchedulerKind scheduler =
              config::SchedulerKind::VirtualClock,
          int sink_depth = kSinkDepth)
    {
        cfg.numPorts = kPorts;
        cfg.numVcs = kVcs;
        cfg.flitBufferDepth = kDepth;
        cfg.crossbar = crossbar;
        cfg.scheduler = scheduler;
        router = std::make_unique<WormholeRouter>(simulator, cfg,
                                                  "dut");
        router->setRouteTable(routes);
        for (int p = 0; p < kPorts; ++p) {
            inLinks.push_back(std::make_unique<Link>(
                simulator, cfg.cycleTime(), "in"));
            router->connectInputLink(p, *inLinks.back());
            inLinks.back()->connectCreditReceiver(&creditSinks[p]);

            outLinks.push_back(std::make_unique<Link>(
                simulator, cfg.cycleTime(), "out"));
            sinks[p].init(&simulator);
            outLinks.back()->connectReceiver(&sinks[p]);
            router->connectOutputLink(p, *outLinks.back(), sink_depth);
        }
    }

    /** Sends a whole message into (port, vc) at the current time. */
    void
    sendMessage(int port, int vc, int dest, int flits, int stream,
                Tick vtick = microseconds(8))
    {
        Flit flit;
        flit.stream = StreamId(stream);
        flit.messageFlits = flits;
        flit.dest = NodeId(dest);
        flit.vcLane = vc;
        flit.vtick = vtick;
        for (int i = 0; i < flits; ++i) {
            flit.index = i;
            flit.type = i == 0 ? FlitType::Header
                : i == flits - 1 ? FlitType::Tail
                                 : FlitType::Body;
            inLinks[static_cast<std::size_t>(port)]->sendFlit(flit, vc);
        }
    }

    /** Tail-arrival time of @p stream at @p port; -1 if missing. */
    Tick
    tailTime(int port, int stream) const
    {
        for (const auto& arrival : sinks[port].arrivals) {
            if (arrival.flit.stream == StreamId(stream)
                && arrival.flit.isTail()) {
                return arrival.when;
            }
        }
        return -1;
    }

    Simulator simulator;
    config::RouterConfig cfg;
    std::unique_ptr<WormholeRouter> router;
    std::vector<std::unique_ptr<Link>> inLinks;
    std::vector<std::unique_ptr<Link>> outLinks;
    Sink sinks[kPorts];
    CreditSink creditSinks[kPorts];
    /** Route table build() installs: destination d leaves on port
     *  d. Tests may extend it before calling build(). */
    RouteTable routes = [] {
        RouteTable table;
        for (int d = 0; d < kPorts; ++d)
            table.push_back(RouteCandidates::single(d));
        return table;
    }();
};

TEST_F(RouterTest, DeliversSingleMessageInOrder)
{
    build();
    sendMessage(/*port=*/0, /*vc=*/1, /*dest=*/2, /*flits=*/5,
                /*stream=*/7);
    simulator.runToCompletion();

    ASSERT_EQ(sinks[2].arrivals.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        const auto& arrival =
            sinks[2].arrivals[static_cast<std::size_t>(i)];
        EXPECT_EQ(arrival.flit.index, i);
        EXPECT_EQ(arrival.vc, 1);
        EXPECT_EQ(arrival.flit.stream, StreamId(7));
    }
    EXPECT_TRUE(sinks[2].arrivals.front().flit.isHeader());
    EXPECT_TRUE(sinks[2].arrivals.back().flit.isTail());
    for (int p : {0, 1, 3})
        EXPECT_TRUE(sinks[p].arrivals.empty());
    EXPECT_EQ(router->headersRouted(), 1u);
    EXPECT_EQ(router->flitsForwarded(), 5u);
    router->checkInvariants();
}

TEST_F(RouterTest, ReturnsOneCreditPerFlit)
{
    build();
    sendMessage(0, 1, 2, 5, 7);
    simulator.runToCompletion();
    EXPECT_EQ(creditSinks[0].credits[1], 5);
}

TEST_F(RouterTest, WormholeHoldsOutputVcUntilTail)
{
    build();
    // Two messages from different inputs to the same (port 3, VC 2):
    // their flits must not interleave on that output VC.
    sendMessage(0, 2, 3, 6, 100);
    sendMessage(1, 2, 3, 6, 200);
    simulator.runToCompletion();

    ASSERT_EQ(sinks[3].arrivals.size(), 12u);
    int switches = 0;
    int last_stream = -1;
    for (const auto& arrival : sinks[3].arrivals) {
        const int stream = arrival.flit.stream.value();
        if (stream != last_stream) {
            ++switches;
            last_stream = stream;
        }
    }
    EXPECT_EQ(switches, 2)
        << "flits of the two messages interleaved on one output VC";
    EXPECT_EQ(router->allocationWaits(), 1u);
    router->checkInvariants();
}

TEST_F(RouterTest, DistinctVcsShareTheLinkConcurrently)
{
    build();
    // Same output port, different VC lanes: flit-level multiplexing
    // interleaves them (Section 3.2's flit-level strategy).
    sendMessage(0, 0, 3, 6, 100);
    sendMessage(1, 1, 3, 6, 200);
    simulator.runToCompletion();

    ASSERT_EQ(sinks[3].arrivals.size(), 12u);
    const Tick tail_a = tailTime(3, 100);
    const Tick tail_b = tailTime(3, 200);
    // Both finish within each other's service window: neither had
    // to wait for the other's tail.
    EXPECT_LT(std::llabs(tail_a - tail_b),
              6 * cfg.cycleTime() + cfg.cycleTime());
    EXPECT_EQ(router->allocationWaits(), 0u);
}

TEST_F(RouterTest, CreditBackpressureStallsAtDepth)
{
    build(config::CrossbarKind::Multiplexed,
          config::SchedulerKind::VirtualClock, /*sink_depth=*/2);
    sendMessage(0, 1, 2, 6, 7);
    simulator.runToCompletion();

    // Only the downstream buffer's worth of flits may cross.
    EXPECT_EQ(sinks[2].arrivals.size(), 2u);

    // Returning credits releases the rest.
    CallbackEvent release([&] {
        for (int i = 0; i < 4; ++i)
            outLinks[2]->sendCredit(1);
    });
    simulator.schedule(release, simulator.now() + microseconds(1));
    simulator.runToCompletion();
    EXPECT_EQ(sinks[2].arrivals.size(), 6u);
    router->checkInvariants();
}

TEST_F(RouterTest, BackToBackMessagesOnOneInputVc)
{
    build();
    // Second message's header queues behind the first's tail in the
    // same input VC and must restart routing after it drains.
    sendMessage(0, 1, 2, 4, 100);
    sendMessage(0, 1, 3, 4, 200);
    simulator.runToCompletion();

    EXPECT_EQ(sinks[2].arrivals.size(), 4u);
    EXPECT_EQ(sinks[3].arrivals.size(), 4u);
    EXPECT_GT(tailTime(3, 200), tailTime(2, 100));
    EXPECT_EQ(router->headersRouted(), 2u);
    router->checkInvariants();
}

TEST_F(RouterTest, AllocationWaitersAreServedInArrivalOrder)
{
    build();
    sendMessage(0, 2, 3, 5, 100);
    CallbackEvent second(
        [&] { sendMessage(1, 2, 3, 5, 200); });
    CallbackEvent third(
        [&] { sendMessage(2, 2, 3, 5, 300); });
    simulator.schedule(second, cfg.cycleTime() * 2);
    simulator.schedule(third, cfg.cycleTime() * 4);
    simulator.runToCompletion();

    EXPECT_EQ(router->allocationWaits(), 2u);
    EXPECT_LT(tailTime(3, 100), tailTime(3, 200));
    EXPECT_LT(tailTime(3, 200), tailTime(3, 300));
}

TEST_F(RouterTest, FatChannelPicksLeastLoadedCandidate)
{
    // Destination 9 may leave through port 1 or port 2.
    routes.resize(10);
    routes[9].ports = {1, 2, 0, 0};
    routes[9].count = 2;
    build(config::CrossbarKind::Multiplexed,
          config::SchedulerKind::VirtualClock, /*sink_depth=*/2);

    // First message ties break towards port 1; the tiny sink depth
    // keeps its flits queued there so the second header sees port 1
    // loaded and diverts to port 2.
    sendMessage(0, 0, 9, 6, 100);
    CallbackEvent second([&] { sendMessage(3, 1, 9, 6, 200); });
    simulator.schedule(second, cfg.cycleTime() * 8);
    simulator.runToCompletion();

    EXPECT_FALSE(sinks[1].arrivals.empty());
    EXPECT_FALSE(sinks[2].arrivals.empty());
    for (const auto& arrival : sinks[1].arrivals)
        EXPECT_EQ(arrival.flit.stream, StreamId(100));
    for (const auto& arrival : sinks[2].arrivals)
        EXPECT_EQ(arrival.flit.stream, StreamId(200));
}

TEST_F(RouterTest, VirtualClockPrefersRealTimeOverBestEffort)
{
    build();
    // Both messages arrive together at the same input port for the
    // same output; the best-effort one carries an infinite Vtick and
    // must yield the crossbar-input multiplexer to the VBR message.
    sendMessage(0, 0, 3, 8, 900, kBestEffortVtick);
    sendMessage(0, 1, 3, 8, 100, microseconds(8));
    simulator.runToCompletion();

    EXPECT_LT(tailTime(3, 100), tailTime(3, 900));
}

TEST_F(RouterTest, FifoServesInArrivalOrderInstead)
{
    build(config::CrossbarKind::Multiplexed,
          config::SchedulerKind::Fifo);
    sendMessage(0, 0, 3, 8, 900, kBestEffortVtick);
    sendMessage(0, 1, 3, 8, 100, microseconds(8));
    simulator.runToCompletion();

    // FIFO is rate-agnostic: the earlier-arrived best-effort message
    // finishes first.
    EXPECT_LT(tailTime(3, 900), tailTime(3, 100));
}

TEST_F(RouterTest, FullCrossbarDeliversAndInterleaves)
{
    build(config::CrossbarKind::Full);
    sendMessage(0, 0, 3, 6, 100);
    sendMessage(1, 1, 3, 6, 200);
    simulator.runToCompletion();

    ASSERT_EQ(sinks[3].arrivals.size(), 12u);
    for (int i = 0; i + 1 < 12; ++i) {
        // Per-VC order still holds.
        const auto& a = sinks[3].arrivals[static_cast<std::size_t>(i)];
        const auto& b =
            sinks[3].arrivals[static_cast<std::size_t>(i + 1)];
        if (a.vc == b.vc) {
            EXPECT_LT(a.flit.index, b.flit.index);
        }
    }
    router->checkInvariants();
}

TEST_F(RouterTest, FullCrossbarWormholeHoldStillApplies)
{
    build(config::CrossbarKind::Full);
    sendMessage(0, 2, 3, 6, 100);
    sendMessage(1, 2, 3, 6, 200);
    simulator.runToCompletion();

    int switches = 0;
    int last_stream = -1;
    for (const auto& arrival : sinks[3].arrivals) {
        if (arrival.flit.stream.value() != last_stream) {
            ++switches;
            last_stream = arrival.flit.stream.value();
        }
    }
    EXPECT_EQ(switches, 2);
    EXPECT_EQ(router->allocationWaits(), 1u);
}

TEST_F(RouterTest, OutputLoadReflectsQueuedFlits)
{
    build(config::CrossbarKind::Multiplexed,
          config::SchedulerKind::VirtualClock, /*sink_depth=*/1);
    EXPECT_EQ(router->outputLoad(2), 0);
    sendMessage(0, 1, 2, 6, 7);
    simulator.runToCompletion();
    EXPECT_GT(router->outputLoad(2), 0);
}

TEST_F(RouterTest, ManyPortsSimultaneouslyAllToAll)
{
    build();
    // Every port sends to every other port on its own VC lane.
    int stream = 0;
    for (int src = 0; src < kPorts; ++src) {
        for (int dst = 0; dst < kPorts; ++dst) {
            if (src == dst)
                continue;
            sendMessage(src, dst % kVcs, dst, 4, stream++);
        }
    }
    simulator.runToCompletion();
    for (int p = 0; p < kPorts; ++p)
        EXPECT_EQ(sinks[p].arrivals.size(), 3u * 4u) << "port " << p;
    EXPECT_EQ(router->flitsForwarded(), 12u * 4u);
    router->checkInvariants();
}

} // namespace
