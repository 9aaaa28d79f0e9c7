/**
 * @file
 * Unit, property and parameterized tests for the multiplexer
 * scheduling disciplines, driven through a one-port
 * router::MultiPortArbiter - the one arbitration path every
 * multiplexer in the simulator uses.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "router/arbiter.hh"
#include "router/flit.hh"
#include "sim/random.hh"

namespace {

using namespace mediaworm::router;
using namespace mediaworm::config;
using mediaworm::sim::Rng;
using mediaworm::sim::Tick;
using mediaworm::sim::microseconds;

/** One eligible slot's head fields. */
struct Slot
{
    int slot;
    Tick stamp;
    std::uint64_t seq;
    Tick vtick = microseconds(8);
};

/** A one-port arbiter of @p kind with exactly @p slots eligible. */
MultiPortArbiter
arbiterWith(SchedulerKind kind, const std::vector<Slot>& slots,
            int num_slots = 8)
{
    MultiPortArbiter arb;
    arb.init(kind, 1, num_slots);
    for (const Slot& s : slots)
        arb.setEligible(0, s.slot, s.stamp, s.seq, s.vtick);
    return arb;
}

// --- FIFO ---------------------------------------------------------------------

TEST(FifoScheduler, PicksOldestArrival)
{
    MultiPortArbiter fifo = arbiterWith(SchedulerKind::Fifo,
                                  {{0, 100, 7}, {1, 50, 3}, {2, 200, 9}});
    EXPECT_EQ(fifo.pick(0), 1);
}

TEST(FifoScheduler, IgnoresStamps)
{
    // Slot 0 has the earliest stamp but the latest arrival.
    MultiPortArbiter fifo =
        arbiterWith(SchedulerKind::Fifo, {{0, 1, 10}, {1, 999, 2}});
    EXPECT_EQ(fifo.pick(0), 1);
}

// --- Virtual Clock -----------------------------------------------------------

TEST(VirtualClockScheduler, PicksLowestStamp)
{
    MultiPortArbiter vc = arbiterWith(SchedulerKind::VirtualClock,
                                {{0, 300, 1}, {1, 100, 2}, {2, 200, 3}});
    EXPECT_EQ(vc.pick(0), 1);
}

TEST(VirtualClockScheduler, BreaksTiesFifo)
{
    MultiPortArbiter vc = arbiterWith(SchedulerKind::VirtualClock,
                                {{0, 100, 9}, {1, 100, 4}});
    EXPECT_EQ(vc.pick(0), 1);
}

TEST(VirtualClockScheduler, RealTimeBeatsBestEffort)
{
    MultiPortArbiter vc = arbiterWith(
        SchedulerKind::VirtualClock,
        {{0, kBestEffortVtick, 1, kBestEffortVtick},
         {1, microseconds(500), 99}});
    EXPECT_EQ(vc.pick(0), 1);
}

// --- Round robin ----------------------------------------------------------------

TEST(RoundRobinScheduler, RotatesAcrossSlots)
{
    MultiPortArbiter rr = arbiterWith(SchedulerKind::RoundRobin,
                                {{0, 0, 0}, {1, 0, 1}, {2, 0, 2}});
    std::vector<int> picks;
    for (int i = 0; i < 6; ++i)
        picks.push_back(rr.pick(0));
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobinScheduler, SkipsMissingSlots)
{
    MultiPortArbiter rr = arbiterWith(SchedulerKind::RoundRobin,
                                {{0, 0, 0}, {1, 0, 1}, {2, 0, 2}});
    EXPECT_EQ(rr.pick(0), 0);
    // Slot 1 drops out; rotation continues from the last winner.
    rr.clearEligible(0, 1);
    EXPECT_EQ(rr.pick(0), 2);
    EXPECT_EQ(rr.pick(0), 0);
}

// --- Weighted round robin ---------------------------------------------------------

TEST(WeightedRoundRobin, ServesProportionallyToRate)
{
    // Slot 0 requests twice the rate of slot 1.
    MultiPortArbiter wrr = arbiterWith(
        SchedulerKind::WeightedRoundRobin,
        {{0, 0, 0, microseconds(4)}, {1, 0, 1, microseconds(8)}});
    int grants[2] = {};
    for (int i = 0; i < 300; ++i)
        ++grants[wrr.pick(0)];
    EXPECT_NEAR(static_cast<double>(grants[0]) / grants[1], 2.0, 0.1);
}

TEST(WeightedRoundRobin, EqualRatesShareEvenly)
{
    MultiPortArbiter wrr = arbiterWith(SchedulerKind::WeightedRoundRobin,
                                 {{0, 0, 0}, {1, 0, 1}, {2, 0, 2}});
    int grants[3] = {};
    for (int i = 0; i < 300; ++i)
        ++grants[wrr.pick(0)];
    EXPECT_NEAR(grants[0], 100, 5);
    EXPECT_NEAR(grants[1], 100, 5);
    EXPECT_NEAR(grants[2], 100, 5);
}

TEST(WeightedRoundRobin, AllBestEffortStillProgresses)
{
    MultiPortArbiter wrr = arbiterWith(
        SchedulerKind::WeightedRoundRobin,
        {{0, 0, 0, kBestEffortVtick}, {1, 0, 1, kBestEffortVtick}});
    int grants[2] = {};
    for (int i = 0; i < 100; ++i)
        ++grants[wrr.pick(0)];
    EXPECT_GT(grants[0], 20);
    EXPECT_GT(grants[1], 20);
}

// --- Initialisation ------------------------------------------------------------

TEST(SchedulerFactory, MakesEveryKind)
{
    for (auto kind :
         {SchedulerKind::Fifo, SchedulerKind::RoundRobin,
          SchedulerKind::VirtualClock,
          SchedulerKind::WeightedRoundRobin}) {
        MultiPortArbiter arb;
        arb.init(kind, 1, kMaxVcs);
        EXPECT_EQ(arb.kind(), kind) << toString(kind);
        EXPECT_FALSE(arb.anyEligible(0)) << toString(kind);
        // The widest arbiter still reaches its top slot.
        arb.setEligible(0, kMaxVcs - 1, 0, 0, microseconds(8));
        EXPECT_EQ(arb.pick(0), kMaxVcs - 1) << toString(kind);
    }
}

// --- Parameterized properties over all disciplines --------------------------------

class AllSchedulers : public testing::TestWithParam<SchedulerKind>
{
};

/** Re-draws the head fields of every slot in @p mask. */
void
refill(MultiPortArbiter& arb, std::uint64_t mask, Rng& rng)
{
    while (mask != 0) {
        const int slot = std::countr_zero(mask);
        mask &= mask - 1;
        arb.setEligible(0, slot, static_cast<Tick>(rng.uniformInt(1000)),
                        rng.next(), microseconds(1 + rng.uniformInt(20)));
    }
}

TEST_P(AllSchedulers, PickIsAlwaysInRange)
{
    MultiPortArbiter arb;
    arb.init(GetParam(), 1, 32);
    Rng rng(2024);
    for (int round = 0; round < 500; ++round) {
        const std::uint64_t mask = rng.next() & 0xffffffffu;
        if (mask == 0)
            continue;
        for (int s = 0; s < 32; ++s)
            arb.clearEligible(0, s);
        refill(arb, mask, rng);
        const int pick = arb.pick(0);
        ASSERT_TRUE((mask >> pick) & 1u) << "round " << round;
    }
}

TEST_P(AllSchedulers, SingleCandidateAlwaysWins)
{
    MultiPortArbiter arb = arbiterWith(GetParam(), {{5, 123, 9}});
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(arb.pick(0), 5);
}

TEST_P(AllSchedulers, DeterministicGivenSameHistory)
{
    MultiPortArbiter a;
    MultiPortArbiter b;
    a.init(GetParam(), 1, 8);
    b.init(GetParam(), 1, 8);
    Rng rng_a(7);
    Rng rng_b(7);
    for (int round = 0; round < 200; ++round) {
        const std::uint64_t mask = rng_a.next() & 0xffu;
        rng_b.next();
        if (mask == 0)
            continue;
        for (int s = 0; s < 8; ++s) {
            a.clearEligible(0, s);
            b.clearEligible(0, s);
        }
        refill(a, mask, rng_a);
        refill(b, mask, rng_b);
        ASSERT_EQ(a.pick(0), b.pick(0)) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, AllSchedulers,
    testing::Values(SchedulerKind::Fifo, SchedulerKind::RoundRobin,
                    SchedulerKind::VirtualClock,
                    SchedulerKind::WeightedRoundRobin),
    [](const testing::TestParamInfo<SchedulerKind>& info) {
        std::string name = toString(info.param);
        for (char& c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
