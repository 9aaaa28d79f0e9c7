/**
 * @file
 * Unit tests for the physical channel (link) model.
 */

#include <vector>

#include <gtest/gtest.h>

#include "router/link.hh"
#include "sim/simulator.hh"

namespace {

using namespace mediaworm::router;
using namespace mediaworm::sim;

class CapturingReceiver final : public FlitReceiver
{
  public:
    explicit CapturingReceiver(Simulator& simulator)
        : simulator_(simulator)
    {
    }

    void
    receiveFlit(int, const Flit& flit, int vc) override
    {
        arrivals.push_back({simulator_.now(), flit.index, vc});
    }

    struct Arrival
    {
        Tick when;
        int index;
        int vc;
    };
    std::vector<Arrival> arrivals;

  private:
    Simulator& simulator_;
};

class CapturingCredits final : public CreditReceiver
{
  public:
    explicit CapturingCredits(Simulator& simulator)
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
        Tick when;
        int vc;
    };
    std::vector<Credit> credits;

  private:
    Simulator& simulator_;
};

Flit
makeFlit(int index)
{
    Flit flit;
    flit.index = index;
    return flit;
}

TEST(Link, DeliversAfterDelay)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(160), "test");
    CapturingReceiver receiver(simulator);
    link.connectReceiver(&receiver);

    CallbackEvent send([&] { link.sendFlit(makeFlit(1), 3); });
    simulator.schedule(send, nanoseconds(100));
    simulator.runToCompletion();

    ASSERT_EQ(receiver.arrivals.size(), 1u);
    EXPECT_EQ(receiver.arrivals[0].when, nanoseconds(260));
    EXPECT_EQ(receiver.arrivals[0].index, 1);
    EXPECT_EQ(receiver.arrivals[0].vc, 3);
}

TEST(Link, PreservesOrderUnderBackToBackSends)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    CapturingReceiver receiver(simulator);
    link.connectReceiver(&receiver);

    CallbackEvent send([&] {
        for (int i = 0; i < 5; ++i)
            link.sendFlit(makeFlit(i), 0);
    });
    simulator.schedule(send, 0);
    simulator.runToCompletion();

    ASSERT_EQ(receiver.arrivals.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(receiver.arrivals[static_cast<std::size_t>(i)].index,
                  i);
        EXPECT_EQ(receiver.arrivals[static_cast<std::size_t>(i)].when,
                  nanoseconds(80));
    }
}

TEST(Link, StaggeredSendsKeepSpacing)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    CapturingReceiver receiver(simulator);
    link.connectReceiver(&receiver);

    CallbackEvent first([&] { link.sendFlit(makeFlit(0), 0); });
    CallbackEvent second([&] { link.sendFlit(makeFlit(1), 0); });
    simulator.schedule(first, nanoseconds(0));
    simulator.schedule(second, nanoseconds(80));
    simulator.runToCompletion();

    ASSERT_EQ(receiver.arrivals.size(), 2u);
    EXPECT_EQ(receiver.arrivals[0].when, nanoseconds(80));
    EXPECT_EQ(receiver.arrivals[1].when, nanoseconds(160));
}

TEST(Link, CreditsFlowWithSameDelay)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    CapturingCredits credits(simulator);
    link.connectCreditReceiver(&credits);

    CallbackEvent send([&] {
        link.sendCredit(2);
        link.sendCredit(5);
    });
    simulator.schedule(send, nanoseconds(20));
    simulator.runToCompletion();

    ASSERT_EQ(credits.credits.size(), 2u);
    EXPECT_EQ(credits.credits[0].when, nanoseconds(100));
    EXPECT_EQ(credits.credits[0].vc, 2);
    EXPECT_EQ(credits.credits[1].vc, 5);
}

TEST(Link, ZeroDelayDeliversSameTick)
{
    Simulator simulator;
    Link link(simulator, 0, "test");
    CapturingReceiver receiver(simulator);
    link.connectReceiver(&receiver);

    CallbackEvent send([&] { link.sendFlit(makeFlit(7), 1); });
    simulator.schedule(send, nanoseconds(40));
    simulator.runToCompletion();
    ASSERT_EQ(receiver.arrivals.size(), 1u);
    EXPECT_EQ(receiver.arrivals[0].when, nanoseconds(40));
}

TEST(Link, CountsTransmittedFlits)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    CapturingReceiver receiver(simulator);
    link.connectReceiver(&receiver);
    CallbackEvent send([&] {
        for (int i = 0; i < 3; ++i)
            link.sendFlit(makeFlit(i), 0);
    });
    simulator.schedule(send, 0);
    simulator.runToCompletion();
    EXPECT_EQ(link.flitsSent(), 3u);
}

/**
 * A sender that treats credits the way a router output port does:
 * it says when it is starved, collects due credits itself, and
 * settles them when a run() ends (sim::LazyDrain).
 */
class PullingSender final : public CreditReceiver, public LazyDrain
{
  public:
    PullingSender(Simulator& simulator, Link& link)
        : simulator_(simulator), link_(link)
    {
        link.connectCreditReceiver(this);
        simulator.addLazyDrain(this);
    }

    void
    creditReturned(int, int vc) override
    {
        delivered.push_back({simulator_.now(), vc});
    }

    std::uint64_t
    starvedVcs(int) const override
    {
        return starved ? kAllVcs : 0;
    }

    /** Applies the credits due by @p until, noting their stamps. */
    void
    collect(Tick until)
    {
        link_.collectCredits(until, [this](int vc, Tick due) {
            collected.push_back({due, vc});
        });
    }

    std::uint64_t
    flushLazy(Tick until) override
    {
        collect(until);
        return 0;
    }

    bool lazyPending() const override { return link_.creditsPending(); }

    struct Credit
    {
        Tick when;
        int vc;
        bool operator==(const Credit&) const = default;
    };
    bool starved = false;
    std::vector<Credit> delivered; ///< From the credit event.
    std::vector<Credit> collected; ///< Pulled, stamped deliverAt.

  private:
    Simulator& simulator_;
    Link& link_;
};

using PulledCredits = std::vector<PullingSender::Credit>;

TEST(Link, IdleSenderCollectsCreditsWithoutAnEvent)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    PullingSender sender(simulator, link);

    CallbackEvent send([&] {
        link.sendCredit(2);
        link.sendCredit(2);
        link.sendCredit(5);
    });
    simulator.schedule(send, nanoseconds(20));
    simulator.run(nanoseconds(60));
    // Not due yet: a collect takes nothing.
    sender.collect(simulator.now());
    EXPECT_TRUE(sender.collected.empty());
    EXPECT_EQ(link.creditsInFlight(2), 2);

    simulator.run(nanoseconds(500));
    // Only the send fired; the run's settle applied the credits,
    // each stamped with its deliverAt.
    EXPECT_EQ(simulator.eventsFired(), 1u);
    EXPECT_TRUE(sender.delivered.empty());
    EXPECT_EQ(sender.collected,
              (PulledCredits{{nanoseconds(100), 2},
                             {nanoseconds(100), 2},
                             {nanoseconds(100), 5}}));
    EXPECT_FALSE(link.creditsPending());
}

TEST(Link, StarvedSenderTakesCreditsFromTheEvent)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    PullingSender sender(simulator, link);
    sender.starved = true;

    CallbackEvent send([&] {
        link.sendCredit(2);
        link.sendCredit(5);
    });
    simulator.schedule(send, nanoseconds(20));
    simulator.runToCompletion();
    EXPECT_EQ(simulator.eventsFired(), 2u);
    EXPECT_EQ(sender.delivered,
              (PulledCredits{{nanoseconds(100), 2},
                             {nanoseconds(100), 5}}));
    EXPECT_TRUE(sender.collected.empty());
}

TEST(Link, SenderThatStarvesLaterGetsTheEventAtTheDueTick)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    PullingSender sender(simulator, link);

    CallbackEvent send([&] { link.sendCredit(3); });
    CallbackEvent starve([&] {
        sender.collect(simulator.now());
        sender.starved = true;
        link.awaitCredit();
        // The pending event owns the due credits now.
        sender.collect(nanoseconds(100));
        EXPECT_TRUE(sender.collected.empty());
    });
    simulator.schedule(send, nanoseconds(20));
    simulator.schedule(starve, nanoseconds(60));
    simulator.runToCompletion();
    EXPECT_EQ(sender.delivered,
              (PulledCredits{{nanoseconds(100), 3}}));
    EXPECT_TRUE(sender.collected.empty());
}

/**
 * A credit still on the wire at the run horizon is pending work, as
 * its delivery event used to be: the caller reports the run
 * truncated. Settling the next window applies it.
 */
TEST(Link, CreditDueBeyondTheCapIsPending)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "test");
    PullingSender sender(simulator, link);

    CallbackEvent send([&] { link.sendCredit(1); });
    simulator.schedule(send, nanoseconds(20));
    simulator.run(nanoseconds(99));
    EXPECT_TRUE(simulator.queue().empty());
    const bool truncated =
        !simulator.queue().empty() || simulator.lazyTickPending();
    EXPECT_TRUE(truncated);
    EXPECT_TRUE(sender.collected.empty());

    simulator.run(nanoseconds(100));
    EXPECT_FALSE(simulator.lazyTickPending());
    EXPECT_EQ(sender.collected,
              (PulledCredits{{nanoseconds(100), 1}}));
}

/**
 * One component at both ends of two links, as a router or the PCS
 * switch is: each link hands it the port it was connected with.
 */
class PortRecorder final : public FlitReceiver, public CreditReceiver
{
  public:
    void
    receiveFlit(int port, const Flit&, int vc) override
    {
        flits.push_back({port, vc});
    }

    void
    creditReturned(int port, int vc) override
    {
        credits.push_back({port, vc});
    }

    /** Starved only on port 6, so only its credit takes the event. */
    std::uint64_t
    starvedVcs(int port) const override
    {
        asked.push_back(port);
        return port == 6 ? kAllVcs : 0;
    }

    struct PortVc
    {
        int port;
        int vc;
        bool operator==(const PortVc&) const = default;
    };
    std::vector<PortVc> flits;
    std::vector<PortVc> credits;
    mutable std::vector<int> asked;
};

TEST(Link, PassesItsBoundPortToEveryReceiverCall)
{
    Simulator simulator;
    Link first(simulator, nanoseconds(80), "a");
    Link second(simulator, nanoseconds(80), "b");
    PortRecorder component;
    first.connectReceiver(&component, 3);
    first.connectCreditReceiver(&component, 6);
    second.connectReceiver(&component, 1);
    second.connectCreditReceiver(&component, 4);

    CallbackEvent send([&] {
        first.sendFlit(makeFlit(0), 2);
        second.sendFlit(makeFlit(1), 0);
        first.sendCredit(5);
        second.sendCredit(7);
    });
    simulator.schedule(send, nanoseconds(20));
    simulator.runToCompletion();

    using PortVc = PortRecorder::PortVc;
    EXPECT_EQ(component.flits, (std::vector<PortVc>{{3, 2}, {1, 0}}));
    // Port 4 is not starved: its credit waits in the pipe for a
    // collect that never comes, and takes no event.
    EXPECT_EQ(component.credits, (std::vector<PortVc>{{6, 5}}));
    EXPECT_EQ(second.creditsInFlight(7), 1);
    EXPECT_EQ(component.asked, (std::vector<int>{6, 4, 6}));
}

TEST(Link, ExposesNameAndDelay)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "inj0");
    EXPECT_EQ(link.name(), "inj0");
    EXPECT_EQ(link.delay(), nanoseconds(80));
}

} // namespace
