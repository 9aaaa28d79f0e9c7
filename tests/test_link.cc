/**
 * @file
 * Unit tests for the physical channel (link) model.
 */

#include <vector>

#include <gtest/gtest.h>

#include "router/link.hh"

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
    receiveFlit(const Flit& flit, int vc) override
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
    creditReturned(int vc) override
    {
        credits.push_back({simulator_.now(), vc});
    }

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

TEST(Link, ExposesNameAndDelay)
{
    Simulator simulator;
    Link link(simulator, nanoseconds(80), "inj0");
    EXPECT_EQ(link.name(), "inj0");
    EXPECT_EQ(link.delay(), nanoseconds(80));
}

} // namespace
