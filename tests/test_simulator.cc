/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace {

using namespace mediaworm::sim;

// Every router, link and NI event is an intrusive queue node, and the
// kernel touches one per dispatch: keep each within one cache line.
static_assert(sizeof(Event) <= 64, "sim::Event must fit one cache line");

/** Records the (port, vc) pairs its bound events fire with. */
class PortVcTarget
{
  public:
    void
    serve(int port, int vc)
    {
        fired.push_back({port, vc});
    }

    std::vector<std::pair<int, int>> fired;
};

TEST(MemberFuncEvent, FiresWithItsBoundArgumentsAndReportsItsName)
{
    Simulator simulator;
    PortVcTarget target;
    MemberFuncEvent<&PortVcTarget::serve> constructed(&target, "serve", 2,
                                                      5);
    MemberFuncEvent<&PortVcTarget::serve> bound;
    bound.bind(&target, "RouterVcEvent", 7, 3);
    EXPECT_STREQ(constructed.name(), "serve");
    EXPECT_STREQ(bound.name(), "RouterVcEvent");

    simulator.schedule(bound, 20);
    simulator.schedule(constructed, 10);
    simulator.runToCompletion();
    EXPECT_EQ(target.fired,
              (std::vector<std::pair<int, int>>{{2, 5}, {7, 3}}));
}

TEST(Simulator, StartsAtTimeZero)
{
    Simulator simulator;
    EXPECT_EQ(simulator.now(), 0);
    EXPECT_EQ(simulator.eventsFired(), 0u);
    EXPECT_FALSE(simulator.step());
}

TEST(Simulator, AdvancesClockToEventTimes)
{
    Simulator simulator;
    std::vector<Tick> seen;
    CallbackEvent a([&] { seen.push_back(simulator.now()); });
    CallbackEvent b([&] { seen.push_back(simulator.now()); });
    simulator.schedule(a, 500);
    simulator.schedule(b, 100);
    simulator.runToCompletion();
    EXPECT_EQ(seen, (std::vector<Tick>{100, 500}));
    EXPECT_EQ(simulator.now(), 500);
    EXPECT_EQ(simulator.eventsFired(), 2u);
}

TEST(Simulator, RunStopsAtDeadlineInclusive)
{
    Simulator simulator;
    int fired = 0;
    CallbackEvent at_deadline([&] { ++fired; });
    CallbackEvent after_deadline([&] { ++fired; });
    simulator.schedule(at_deadline, 100);
    simulator.schedule(after_deadline, 101);

    simulator.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(simulator.now(), 100);

    simulator.run(200);
    EXPECT_EQ(fired, 2);
    // Clock advances to the deadline even with no events left.
    EXPECT_EQ(simulator.now(), 200);
}

TEST(Simulator, ScheduleAfterIsRelative)
{
    Simulator simulator;
    Tick fired_at = -1;
    CallbackEvent first([&] { fired_at = simulator.now(); });
    simulator.scheduleAfter(first, 70);
    simulator.runToCompletion();
    EXPECT_EQ(fired_at, 70);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator simulator;
    std::vector<Tick> ticks;
    CallbackEvent repeating;
    repeating.setCallback([&] {
        ticks.push_back(simulator.now());
        if (ticks.size() < 5)
            simulator.scheduleAfter(repeating, 10);
    });
    simulator.schedule(repeating, 10);
    simulator.runToCompletion();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 20, 30, 40, 50}));
}

TEST(Simulator, DescheduleCancelsPendingEvent)
{
    Simulator simulator;
    bool fired = false;
    CallbackEvent event([&] { fired = true; });
    simulator.schedule(event, 10);
    simulator.deschedule(event);
    simulator.runToCompletion();
    EXPECT_FALSE(fired);
}

TEST(Simulator, RescheduleFromInsideEvent)
{
    Simulator simulator;
    int count = 0;
    CallbackEvent target([&] { ++count; });
    CallbackEvent mover([&] { simulator.reschedule(target, 90); });
    simulator.schedule(target, 50);
    simulator.schedule(mover, 40);
    simulator.run(60);
    EXPECT_EQ(count, 0) << "event should have moved past the deadline";
    simulator.run(100);
    EXPECT_EQ(count, 1);
}

TEST(Simulator, SeedControlsRngStream)
{
    Simulator a(7);
    Simulator b(7);
    Simulator c(8);
    const auto x = a.rng().next();
    EXPECT_EQ(x, b.rng().next());
    EXPECT_NE(x, c.rng().next());
}

TEST(Simulator, ZeroDelaySelfScheduleFiresSameTime)
{
    Simulator simulator;
    int fired = 0;
    CallbackEvent chain;
    chain.setCallback([&] {
        if (++fired < 3)
            simulator.scheduleAfter(chain, 0);
    });
    simulator.schedule(chain, 5);
    simulator.runToCompletion();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(simulator.now(), 5);
}

TEST(Simulator, SameTickInsertionFiresAfterQueuedSiblings)
{
    Simulator simulator;
    std::vector<int> order;
    CallbackEvent late([&] { order.push_back(2); });
    CallbackEvent first([&] {
        order.push_back(0);
        simulator.schedule(late, simulator.now()); // same tick, new seq
    });
    CallbackEvent second([&] { order.push_back(1); });
    simulator.schedule(first, 100);
    simulator.schedule(second, 100);
    simulator.runToCompletion();

    // 'late' is scheduled while 'first' fires, so its seq places it
    // after 'second', which was already queued for the same tick.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(simulator.eventsFired(), 3u);
}

/*
 * Idle-epoch fast-forward (DESIGN.md section 14): the skipped-tick
 * accounting and the O(1) lazy settle index, including the edge
 * cases where an elided wakeup's readyAt lands inside a stretch of
 * simulated time the clock jumped over.
 */

TEST(Simulator, IdleTicksSkippedCountsInterEventGapsAndTail)
{
    Simulator simulator;
    CallbackEvent a([] {});
    CallbackEvent b([] {});
    simulator.schedule(a, 10);
    simulator.schedule(b, 1000);
    simulator.run(2000);
    // Ticks 1..9 (9), 11..999 (989) and 1001..2000 (1000) never
    // touched the ring.
    EXPECT_EQ(simulator.idleTicksSkipped(), 9u + 989u + 1000u);
    EXPECT_EQ(simulator.now(), 2000);
}

TEST(Simulator, IdleTicksSkippedSameTickEventsCountOnce)
{
    Simulator simulator;
    CallbackEvent a([] {});
    CallbackEvent b([] {});
    simulator.schedule(a, 50);
    simulator.schedule(b, 50);
    simulator.run(50);
    EXPECT_EQ(simulator.idleTicksSkipped(), 49u);
    EXPECT_EQ(simulator.eventsFired(), 2u);
}

TEST(Simulator, EmptySimulationTerminatesAndSkipsToHorizon)
{
    Simulator simulator;
    simulator.run(123456);
    EXPECT_EQ(simulator.now(), 123456);
    EXPECT_EQ(simulator.idleTicksSkipped(), 123456u);
    EXPECT_EQ(simulator.eventsFired(), 0u);
    // settleLazy on an empty index is the O(1) fast path.
    EXPECT_EQ(simulator.settleLazy(123456), 0u);
    EXPECT_FALSE(simulator.lazyTickPending());
}

/** Minimal LazyDrain component: one elidable service slot, as the
 *  router/NI multiplexers use it. */
class OneSlotMux final : public LazyDrain
{
  public:
    explicit OneSlotMux(Simulator& sim) : sim_(sim)
    {
        event_.setCallback([this] {
            tick_.fired();
            ++fires_;
        });
        sim_.addLazyDrain(this);
    }

    std::uint64_t flushLazy(Tick until) override
    {
        return tick_.flush(until);
    }
    bool lazyPending() const override { return tick_.pending(); }

    Simulator& sim_;
    CallbackEvent event_;
    LazyTick tick_;
    int fires_ = 0;
};

TEST(Simulator, LazyKickInsideSkippedEpochCreditsElidedWakeup)
{
    Simulator simulator;
    OneSlotMux mux(simulator);

    // Elide a wakeup maturing at t=100 (empty arbitration mask).
    mux.tick_.arm(simulator, mux.event_, 100, /*maskEmpty=*/true);
    EXPECT_TRUE(mux.tick_.pending());

    // Nothing matures by t=50: the settle fast path must not scan
    // the wakeup away.
    simulator.run(50);
    EXPECT_TRUE(mux.tick_.pending());
    EXPECT_EQ(simulator.elidedEvents(), 0u);

    // A real event at t=200 makes the clock jump clear over the
    // elided wakeup's readyAt=100. Kicking from inside that event
    // must recognise the wakeup as already-fired (it would have run
    // as a no-op at t=100 had it been queued) and credit it.
    bool serve_inline = false;
    CallbackEvent wake([&] {
        serve_inline = mux.tick_.kick(simulator, mux.event_);
    });
    simulator.schedule(wake, 200);
    simulator.run(300);

    EXPECT_TRUE(serve_inline);
    EXPECT_FALSE(mux.tick_.pending());
    EXPECT_EQ(simulator.elidedEvents(), 1u);
    EXPECT_EQ(mux.fires_, 0) << "the elided wakeup must never fire";
    // eventsFired counts the credited no-op plus the kicking event.
    EXPECT_EQ(simulator.eventsFired(), 2u);
}

TEST(Simulator, LazyKickAheadOfClockRematerializesExactly)
{
    Simulator simulator;
    OneSlotMux mux(simulator);

    mux.tick_.arm(simulator, mux.event_, 100, /*maskEmpty=*/true);

    // Kick at t=30, before the wakeup matures: it must re-enter the
    // queue at its original (when, seq) and fire at exactly t=100.
    bool serve_inline = true;
    CallbackEvent early([&] {
        serve_inline = mux.tick_.kick(simulator, mux.event_);
    });
    simulator.schedule(early, 30);
    simulator.run(300);

    EXPECT_FALSE(serve_inline);
    EXPECT_EQ(mux.fires_, 1);
    EXPECT_EQ(simulator.elidedEvents(), 0u);
}

TEST(Simulator, SettleLazyCreditsMaturedWakeupsAtRunEnd)
{
    Simulator simulator;
    OneSlotMux mux(simulator);

    mux.tick_.arm(simulator, mux.event_, 100, /*maskEmpty=*/true);
    // run() settles matured wakeups on its way out.
    simulator.run(150);
    EXPECT_EQ(simulator.elidedEvents(), 1u);
    EXPECT_EQ(simulator.eventsFired(), 1u);
    EXPECT_FALSE(mux.tick_.pending());
    EXPECT_FALSE(simulator.lazyTickPending());

    // A second arm beyond the horizon stays pending (the run would
    // report truncation).
    mux.tick_.arm(simulator, mux.event_, 500, /*maskEmpty=*/true);
    simulator.run(200);
    EXPECT_TRUE(simulator.lazyTickPending());
    EXPECT_EQ(simulator.elidedEvents(), 1u);
}

} // namespace
