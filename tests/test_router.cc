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
    receiveFlit(int, const Flit& flit, int vc) override
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
    void creditReturned(int, int vc) override { ++credits[vc]; }
    std::uint64_t starvedVcs(int) const override { return kAllVcs; }
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
            if (p == sinkLinkPort)
                router->connectSinkLink(p, *outLinks.back());
            else
                router->connectOutputLink(p, *outLinks.back(), sink_depth);
        }
    }

    /** Sends a whole message into (port, vc) at the current time. */
    void
    sendMessage(int port, int vc, int dest, int flits, int stream,
                Tick vtick = microseconds(8))
    {
        sendFlits(port, vc, dest, flits, stream, 0, flits, vtick);
    }

    /** Sends flits [@p from, @p to) of a @p flits -flit message. */
    void
    sendFlits(int port, int vc, int dest, int flits, int stream,
              int from, int to, Tick vtick = microseconds(8))
    {
        Flit flit;
        flit.stream = StreamId(stream);
        flit.messageFlits = flits;
        flit.dest = NodeId(dest);
        flit.vcLane = static_cast<std::uint8_t>(vc);
        flit.vtick = vtick;
        for (int i = from; i < to; ++i) {
            flit.index = i;
            flit.type = i == 0 ? FlitType::Header
                : i == flits - 1 ? FlitType::Tail
                                 : FlitType::Body;
            inLinks[static_cast<std::size_t>(port)]->sendFlit(flit, vc);
        }
    }

    /**
     * Parks input VCs on full output VCs: with @p sink_depth = 1 a
     * 12-flit message sends one flit downstream, fills the 8-flit
     * output VC buffer and keeps 3 flits in its input VC, whose gate
     * then fails until a downstream credit frees a slot. The message
     * is sent in two parts because the input buffer holds 8 flits.
     */
    void
    sendParkedMessage(int port, int vc, int dest, int stream)
    {
        sendFlits(port, vc, dest, 12, stream, 0, 8);
        simulator.runToCompletion();
        sendFlits(port, vc, dest, 12, stream, 8, 12);
        simulator.runToCompletion();
    }

    /** Returns @p count downstream credits on output (@p port, @p vc)
     *  and runs until the router is quiescent again. */
    void
    returnCredits(int port, int vc, int count)
    {
        for (int i = 0; i < count; ++i)
            outLinks[static_cast<std::size_t>(port)]->sendCredit(vc);
        simulator.runToCompletion();
    }

    /**
     * Parks two holders on full output VCs of port 3 and frees one
     * slot at a time: each freed slot wakes exactly its VC's holder.
     */
    void
    checkSpaceWake(config::CrossbarKind crossbar)
    {
        build(crossbar, config::SchedulerKind::VirtualClock,
              /*sink_depth=*/1);

        // Input VCs (0, 1) and (1, 2) park on output VCs (3, 1) and
        // (3, 2): 9 flits crossed (one downstream, eight buffered),
        // 3 wait upstream.
        sendParkedMessage(0, 1, 3, 100);
        sendParkedMessage(1, 2, 3, 200);
        EXPECT_EQ(creditSinks[0].credits[1], 9);
        EXPECT_EQ(creditSinks[1].credits[2], 9);
        EXPECT_EQ(sinks[3].arrivals.size(), 2u);
        router->checkInvariants();

        // A credit on VC 2 frees one slot of (3, 2): its holder
        // wakes and moves one flit; (0, 1) stays parked.
        returnCredits(3, 2, 1);
        EXPECT_EQ(creditSinks[1].credits[2], 10);
        EXPECT_EQ(creditSinks[0].credits[1], 9);
        router->checkInvariants();

        // Then (3, 1) frees a slot and its holder wakes in turn.
        returnCredits(3, 1, 1);
        EXPECT_EQ(creditSinks[0].credits[1], 10);
        EXPECT_EQ(creditSinks[1].credits[2], 10);
        router->checkInvariants();

        // The sink drains all 12 flits of each message: one credit
        // per flit, 11 of them still owed.
        returnCredits(3, 1, 11);
        returnCredits(3, 2, 11);
        EXPECT_EQ(creditSinks[0].credits[1], 12);
        EXPECT_EQ(creditSinks[1].credits[2], 12);
        EXPECT_EQ(sinks[3].arrivals.size(), 24u);
        router->checkInvariants();
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
    /** Output port build() wires as an NI sink (connectSinkLink);
     *  the others take connectOutputLink's credited stand-in. */
    int sinkLinkPort = -1;
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

/**
 * An output port wired to a sink spends no credits: with none ever
 * returned, one VC forwards three buffers' worth of flits and the
 * port still holds its full depth, never starved.
 */
TEST_F(RouterTest, SinkPortForwardsWithoutCredits)
{
    sinkLinkPort = 2;
    build();
    // The 8-flit input buffer takes the message a buffer at a time.
    for (int part = 0; part < 3; ++part) {
        sendFlits(0, 1, 2, 3 * kDepth, 7, part * kDepth,
                  (part + 1) * kDepth);
        simulator.runToCompletion();
        EXPECT_EQ(router->outputCredits(2, 1), kDepth);
        EXPECT_EQ(router->starvedVcs(2), 0u);
        router->checkInvariants();
    }
    EXPECT_EQ(sinks[2].arrivals.size(), 3u * kDepth);
    EXPECT_EQ(router->flitsForwarded(), 3u * kDepth);
}

/**
 * Under virtual cut-through the credit gate always passes at a sink
 * port: each flitBufferDepth-flit message is granted at once, with no
 * credit returned for the ones before it.
 */
TEST_F(RouterTest, SinkPortGrantsCutThroughAtOnce)
{
    sinkLinkPort = 2;
    cfg.switching = config::SwitchingKind::VirtualCutThrough;
    build();
    for (int m = 0; m < 3; ++m) {
        sendMessage(0, 1, 2, kDepth, 7 + m);
        simulator.runToCompletion();
        EXPECT_EQ(router->allocationWaits(), 0u);
        EXPECT_EQ(router->outputCredits(2, 1), kDepth);
        EXPECT_EQ(router->starvedVcs(2), 0u);
        router->checkInvariants();
    }
    EXPECT_EQ(sinks[2].arrivals.size(), 3u * kDepth);
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
    // Port 0 holds output VC (3, 2) for 8 flits; three more headers
    // queue for it from ports 2, 3 and 1, in that order, so arrival
    // order differs from port order.
    sendMessage(0, 2, 3, 8, 100);
    CallbackEvent second([&] { sendMessage(2, 2, 3, 5, 200); });
    CallbackEvent third([&] { sendMessage(3, 2, 3, 5, 300); });
    CallbackEvent fourth([&] { sendMessage(1, 2, 3, 5, 400); });
    simulator.schedule(second, cfg.cycleTime() * 1);
    simulator.schedule(third, cfg.cycleTime() * 2);
    simulator.schedule(fourth, cfg.cycleTime() * 3);
    simulator.runToCompletion();

    EXPECT_EQ(router->allocationWaits(), 3u);
    EXPECT_LT(tailTime(3, 100), tailTime(3, 200));
    EXPECT_LT(tailTime(3, 200), tailTime(3, 300));
    EXPECT_LT(tailTime(3, 300), tailTime(3, 400));
    EXPECT_EQ(sinks[3].arrivals.size(), 23u);
    router->checkInvariants();
}

TEST_F(RouterTest, SpaceWaiterWakesWhenItsOutputVcFreesASlot)
{
    checkSpaceWake(config::CrossbarKind::Multiplexed);
}

TEST_F(RouterTest, FullCrossbarSpaceWaiterWakesWhenItsOutputVcFreesASlot)
{
    checkSpaceWake(config::CrossbarKind::Full);
}

TEST_F(RouterTest, ParkedHolderQueuesItsNextHeaderBehindEarlierWaiters)
{
    build(config::CrossbarKind::Multiplexed,
          config::SchedulerKind::VirtualClock, /*sink_depth=*/1);
    // Input VC (0, 2) holds output VC (3, 2) and parks on its space
    // while its next message (101) queues behind in the same input
    // VC. Meanwhile port 1's header waits for (3, 2)'s allocation.
    sendParkedMessage(0, 2, 3, 100);
    sendMessage(0, 2, 3, 4, 101);
    sendMessage(1, 2, 3, 4, 200);
    simulator.runToCompletion();
    EXPECT_EQ(creditSinks[0].credits[2], 9); // 100 is still parked.
    EXPECT_EQ(router->allocationWaits(), 1u);
    router->checkInvariants();

    // Draining (3, 2) hands it to the earlier waiter (200) first;
    // 101's header requests only after 100's tail left its input VC.
    // One credit per flit the sink drains: 100, 101 and 200 deliver
    // 20 flits through the depth-1 sink.
    returnCredits(3, 2, 20);
    EXPECT_EQ(router->allocationWaits(), 2u);
    EXPECT_LT(tailTime(3, 100), tailTime(3, 200));
    EXPECT_LT(tailTime(3, 200), tailTime(3, 101));
    EXPECT_EQ(sinks[3].arrivals.size(), 20u);
    router->checkInvariants();
}

TEST_F(RouterTest, RoutesToUnwiredPortsAreRejected)
{
    // Ports 0-2 are wired; the table still sends node 3 out of the
    // unwired port 3, which has no buffers.
    cfg.numPorts = kPorts;
    cfg.numVcs = kVcs;
    cfg.flitBufferDepth = kDepth;
    WormholeRouter sparse(simulator, cfg, "sparse");
    sparse.setRouteTable(routes);
    std::vector<std::unique_ptr<Link>> links;
    for (int p = 0; p < kPorts - 1; ++p) {
        links.push_back(
            std::make_unique<Link>(simulator, cfg.cycleTime(), "in"));
        sparse.connectInputLink(p, *links.back());
        links.back()->connectCreditReceiver(&creditSinks[p]);
        links.push_back(
            std::make_unique<Link>(simulator, cfg.cycleTime(), "out"));
        sinks[p].init(&simulator);
        links.back()->connectReceiver(&sinks[p]);
        sparse.connectOutputLink(p, *links.back(), kSinkDepth);
    }
    EXPECT_DEATH(sparse.checkRoutesWired(),
                 "sparse: route to node 3 names output port 3, which "
                 "has no link");

    // A table installed without the setup check still never writes
    // into the missing buffers: the header's route is checked in
    // every build.
    Flit header;
    header.dest = NodeId(3);
    header.messageFlits = 2;
    EXPECT_DEATH(
        {
            links[0]->sendFlit(header, 0);
            simulator.runToCompletion();
        },
        "sparse: header for node 3 routed to output port 3");
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

TEST_F(RouterTest, AdaptiveCandidateMustBeDrainedDownstream)
{
    // Destination 9: adaptive port 1, escape port 2.
    routes.resize(10);
    routes[9].ports = {1, 2, 0, 0};
    routes[9].count = 2;
    routes[9].select = RouteCandidates::Select::AdaptiveEscape;
    build(config::CrossbarKind::Multiplexed,
          config::SchedulerKind::VirtualClock, /*sink_depth=*/2);

    // Message 100 takes the free adaptive VC (1, 0); its two flits
    // use both downstream slots and its tail releases the VC.
    sendMessage(0, 0, 9, 2, 100);
    simulator.runToCompletion();
    ASSERT_EQ(sinks[1].arrivals.size(), 2u);
    EXPECT_EQ(router->outputCredits(1, 0), 0);

    // (1, 0) is unallocated but its downstream buffer still holds
    // 100: message 200 must not queue behind it there, so it takes
    // the escape port.
    sendMessage(3, 0, 9, 4, 200);
    simulator.runToCompletion();
    EXPECT_EQ(sinks[1].arrivals.size(), 2u);
    ASSERT_EQ(sinks[2].arrivals.size(), 2u); // Escape sink depth 2.
    EXPECT_EQ(sinks[2].arrivals[0].flit.stream, StreamId(200));
    router->checkInvariants();
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
