/**
 * @file
 * Unit tests for lazy-tick elision (DESIGN.md section 13).
 *
 * The contract under test: LazyTick elides only wakeups that are
 * provable no-ops, and credits each one as a fired event at the time
 * it would have fired had it been queued.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace {

using namespace mediaworm::sim;

TEST(LazyTick, ElidedWakeupIsCreditedByRunAtItsDueTime)
{
    Simulator sim;
    CallbackEvent wakeup([] { FAIL() << "elided wakeup must not fire"; });
    LazyTick tick;

    tick.arm(sim, wakeup, 5, /*maskEmpty=*/true);
    EXPECT_TRUE(tick.busy());
    EXPECT_TRUE(tick.pending());
    EXPECT_TRUE(sim.queue().empty());

    // Not yet due: the wakeup stays pending across an earlier run ...
    struct Drain final : LazyDrain
    {
        LazyTick* t;
        std::uint64_t flushLazy(Tick until) override
        {
            return t->flush(until);
        }
        bool lazyPending() const override { return t->pending(); }
    } drain;
    drain.t = &tick;
    sim.addLazyDrain(&drain);

    sim.run(4);
    EXPECT_TRUE(tick.pending());
    EXPECT_EQ(sim.eventsFired(), 0u);

    // ... and is credited as a fired no-op once the window covers it.
    sim.run(10);
    EXPECT_FALSE(tick.pending());
    EXPECT_EQ(sim.eventsFired(), 1u);
    EXPECT_EQ(sim.elidedEvents(), 1u);
}

TEST(LazyTick, KickBeforeDueTimeRematerializesAtExactPosition)
{
    Simulator sim;
    std::vector<int> order;
    CallbackEvent wakeup([&] { order.push_back(0); });
    LazyTick tick;

    // Reserve the wakeup's seq first, then schedule a later rival at
    // the same tick: the rematerialized wakeup must still fire first.
    tick.arm(sim, wakeup, 5, /*maskEmpty=*/true);
    CallbackEvent rival([&] { order.push_back(1); });
    sim.schedule(rival, 5);

    EXPECT_FALSE(tick.kick(sim, wakeup)); // still ahead: rearmed
    EXPECT_TRUE(tick.busy());
    EXPECT_FALSE(tick.pending());

    sim.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sim.eventsFired(), 2u);
    EXPECT_EQ(sim.elidedEvents(), 0u);
}

TEST(LazyTick, KickAfterDueKeyCreditsAndServesInline)
{
    Simulator sim;
    LazyTick tick;
    CallbackEvent wakeup([] { FAIL() << "credited wakeup must not fire"; });

    bool kicked_ready = false;
    CallbackEvent trigger([&] {
        // At this point the firing event's seq is beyond the
        // wakeup's reserved seq (same tick, reserved earlier), so a
        // queued no-op wakeup would already have fired: kick()
        // credits it and tells the caller to serve inline.
        kicked_ready = tick.kick(sim, wakeup);
    });
    tick.arm(sim, wakeup, 5, /*maskEmpty=*/true);
    sim.schedule(trigger, 5);
    sim.runToCompletion();

    EXPECT_TRUE(kicked_ready);
    EXPECT_FALSE(tick.busy());
    EXPECT_EQ(sim.eventsFired(), 2u); // trigger + credited wakeup
    EXPECT_EQ(sim.elidedEvents(), 1u);
}

TEST(LazyTick, NonEmptyMaskSchedulesRealWakeup)
{
    Simulator sim;
    int fired = 0;
    CallbackEvent wakeup([&] { ++fired; });
    LazyTick tick;
    tick.arm(sim, wakeup, 5, /*maskEmpty=*/false);
    EXPECT_TRUE(tick.busy());
    EXPECT_FALSE(tick.pending()); // really scheduled, not elided
    EXPECT_TRUE(wakeup.scheduled());
    EXPECT_EQ(wakeup.when(), 5);
    sim.runToCompletion();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.eventsFired(), 1u);
    EXPECT_EQ(sim.elidedEvents(), 0u);
}

} // namespace
