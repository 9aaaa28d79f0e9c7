/**
 * @file
 * Differential fuzz of router::MultiPortArbiter against the reference
 * Scheduler classes (tests/reference_scheduler.hh), plus targeted
 * tests of the incremental-state API and the fixed-point WRR deficit
 * accounting.
 *
 * The arbiter (router/arbiter.hh) must select the same winner as the
 * virtual Scheduler it replaced for every discipline and every
 * reachable mux state, including across rounds for the stateful
 * disciplines (round robin's rotation pointer, WRR's deficits) - and
 * it must keep that per-port state apart, since one instance holds
 * every multiplexer of a router or of a PCS switch side in shared
 * arrays. The fuzzer drives a multi-port arbiter and one reference
 * scheduler per port with a randomized stream of interleaved
 * eligibility changes and masked picks, and requires identical
 * winners on every round.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "config/router_config.hh"
#include "reference_scheduler.hh"
#include "router/arbiter.hh"
#include "router/flit.hh"
#include "sim/random.hh"

namespace {

using namespace mediaworm::router;
using namespace mediaworm::reference;
using mediaworm::config::SchedulerKind;
using mediaworm::sim::Rng;
using mediaworm::sim::Tick;
using mediaworm::sim::microseconds;

// --- incremental-state API ----------------------------------------------------

TEST(MultiPortArbiter, MaskTracksSetAndClear)
{
    MultiPortArbiter arb;
    arb.init(SchedulerKind::Fifo, 3, 8);
    EXPECT_FALSE(arb.anyEligible(1));

    arb.setEligible(1, 3, /*stamp=*/10, /*fifo_seq=*/1, microseconds(8));
    arb.setEligible(1, 5, /*stamp=*/20, /*fifo_seq=*/2, microseconds(8));
    EXPECT_TRUE(arb.anyEligible(1));
    EXPECT_EQ(arb.mask(1),
              (std::uint64_t{1} << 3) | (std::uint64_t{1} << 5));
    EXPECT_TRUE(arb.eligible(1, 3));
    EXPECT_FALSE(arb.eligible(1, 4));
    // The other ports' masks are untouched.
    EXPECT_EQ(arb.mask(0), 0u);
    EXPECT_EQ(arb.mask(2), 0u);

    arb.clearEligible(1, 3);
    arb.clearEligible(1, 3); // idempotent
    EXPECT_EQ(arb.mask(1), std::uint64_t{1} << 5);
}

TEST(MultiPortArbiter, SetEligibleRefreshesHeadRecord)
{
    MultiPortArbiter arb;
    arb.init(SchedulerKind::VirtualClock, 2, 4);
    arb.setEligible(1, 2, 100, 7, microseconds(4));
    EXPECT_EQ(arb.head(1, 2).stamp, 100);
    EXPECT_EQ(arb.head(1, 2).fifoSeq, 7u);
    EXPECT_EQ(arb.head(1, 2).vtick, microseconds(4));

    // A pop exposing the next flit re-caches via the same call.
    arb.setEligible(1, 2, 250, 9, microseconds(4));
    EXPECT_EQ(arb.head(1, 2).stamp, 250);
    EXPECT_EQ(arb.head(1, 2).fifoSeq, 9u);
    // Port 0's slot 2 has its own record.
    EXPECT_EQ(arb.head(0, 2).stamp, 0);
}

TEST(MultiPortArbiter, PickMaskedRestrictsToSubset)
{
    MultiPortArbiter arb;
    arb.init(SchedulerKind::VirtualClock, 2, 8);
    arb.setEligible(0, 1, /*stamp=*/10, 1, microseconds(8)); // global best
    arb.setEligible(0, 6, /*stamp=*/99, 2, microseconds(8));
    arb.setEligible(1, 4, /*stamp=*/1, 3, microseconds(8));
    // Gating away slot 1 (as the input mux's space/crossbar gates do)
    // must hand the round to the best of what remains.
    EXPECT_EQ(arb.pickMasked(0, std::uint64_t{1} << 6), 6);
    EXPECT_EQ(arb.pick(0), 1);
    EXPECT_EQ(arb.pick(1), 4);
}

// --- differential fuzz vs the legacy schedulers -------------------------------

/**
 * A randomized multi-port arbiter: per-port slot populations whose
 * heads change between rounds, feeding the arbiter and one reference
 * scheduler per port identically.
 */
class DifferentialFuzz : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(DifferentialFuzz, WinnersMatchLegacySchedulers)
{
    const SchedulerKind kind = GetParam();
    constexpr int kRounds = 120000;
    constexpr int kPorts = 4;
    constexpr int kNumSlots = 16;

    Rng rng(0x715eed5eed5eedULL
            + static_cast<std::uint64_t>(kind) * 0x9e37ULL);

    MultiPortArbiter arb;
    arb.init(kind, kPorts, kNumSlots);
    std::vector<std::unique_ptr<Scheduler>> legacy;
    for (int p = 0; p < kPorts; ++p)
        legacy.push_back(makeScheduler(kind));

    // Persistent per-(port, slot) head state, mutated incrementally
    // the way real muxes are: winners pop (new head or empty), idle
    // slots gain a flit, eligible ones drop out. A port's legacy
    // candidate vector is rebuilt from the same state by an
    // ascending-slot scan, exactly like the code the arbiter
    // replaced.
    struct SlotState
    {
        bool eligible = false;
        Tick stamp = 0;
        std::uint64_t fifoSeq = 0;
        Tick vtick = kBestEffortVtick;
    };
    std::vector<SlotState> slots(kPorts * kNumSlots);
    const auto at = [&slots](int port, int slot) -> SlotState& {
        return slots[static_cast<std::size_t>(port * kNumSlots + slot)];
    };
    std::uint64_t next_seq = 0;
    Tick now = 0;

    // Vticks drawn from the paper's operating range plus best-effort
    // "infinity", so WRR weights exercise both exact and truncated
    // fixed-point ratios.
    const Tick vticks[] = {microseconds(3), microseconds(4),
                           microseconds(8), microseconds(10),
                           microseconds(33), kBestEffortVtick};

    auto arrive = [&](int p, int s) {
        SlotState& st = at(p, s);
        st.eligible = true;
        st.stamp = now + static_cast<Tick>(rng.uniformInt(2000));
        st.fifoSeq = next_seq++;
        st.vtick = vticks[rng.uniformInt(std::size(vticks))];
        arb.setEligible(p, s, st.stamp, st.fifoSeq, st.vtick);
    };

    int rounds_run = 0;
    int masked_rounds = 0;
    for (int round = 0; round < kRounds; ++round) {
        now += static_cast<Tick>(rng.uniformInt(100));

        // Mutate random (port, slot) pairs across all ports: a fresh
        // arrival behind an empty slot, an upstream re-route changing
        // an eligible head, or a slot losing eligibility.
        for (int k = 0; k < kNumSlots; ++k) {
            const int p = static_cast<int>(rng.uniformInt(kPorts));
            const int s = static_cast<int>(rng.uniformInt(kNumSlots));
            if (rng.uniform01() < 0.75) {
                arrive(p, s);
            } else {
                at(p, s).eligible = false;
                arb.clearEligible(p, s);
            }
        }

        // Every port's mask mirrors its own slots only.
        for (int p = 0; p < kPorts; ++p) {
            std::uint64_t want = 0;
            for (int s = 0; s < kNumSlots; ++s) {
                if (at(p, s).eligible)
                    want |= std::uint64_t{1} << s;
            }
            ASSERT_EQ(arb.mask(p), want) << "port " << p;
        }

        // One port serves this round, over its whole eligible set or
        // over a gated subset (the input mux's serve-time pruning).
        const int port = static_cast<int>(rng.uniformInt(kPorts));
        std::uint64_t m = arb.mask(port);
        if (m == 0)
            continue;
        ++rounds_run;
        if (rng.bernoulli(0.5)) {
            const std::uint64_t gated = m & rng.next();
            if (gated != 0 && gated != m) {
                m = gated;
                ++masked_rounds;
            }
        }

        std::vector<Candidate> candidates;
        for (int s = 0; s < kNumSlots; ++s) {
            const SlotState& st = at(port, s);
            if ((m >> s) & 1u)
                candidates.push_back(
                    {s, st.stamp, st.fifoSeq, st.vtick});
        }
        const std::size_t legacy_index =
            legacy[static_cast<std::size_t>(port)]->pick(candidates);
        const int legacy_slot = candidates[legacy_index].slot;
        const int kernel_slot = m == arb.mask(port)
            ? arb.pick(port)
            : arb.pickMasked(port, m);
        ASSERT_EQ(kernel_slot, legacy_slot)
            << "divergence at round " << round << " port " << port
            << " for " << mediaworm::config::toString(kind);

        // The winner's head flit leaves; usually another queued flit
        // becomes the head with a later stamp/seq.
        SlotState& won = at(port, legacy_slot);
        if (rng.bernoulli(0.7)) {
            won.stamp = now + static_cast<Tick>(rng.uniformInt(2000));
            won.fifoSeq = next_seq++;
            arb.setEligible(port, legacy_slot, won.stamp, won.fifoSeq,
                            won.vtick);
        } else {
            won.eligible = false;
            arb.clearEligible(port, legacy_slot);
        }
    }
    // The mutation rates keep the muxes busy; make sure the loop
    // actually exercised both kinds of pick and did not vacuously
    // pass.
    EXPECT_GT(rounds_run, kRounds / 2);
    EXPECT_GT(masked_rounds, kRounds / 10);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DifferentialFuzz,
    ::testing::Values(SchedulerKind::Fifo, SchedulerKind::RoundRobin,
                      SchedulerKind::VirtualClock,
                      SchedulerKind::WeightedRoundRobin),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
        switch (info.param) {
          case SchedulerKind::Fifo:
            return "Fifo";
          case SchedulerKind::RoundRobin:
            return "RoundRobin";
          case SchedulerKind::VirtualClock:
            return "VirtualClock";
          case SchedulerKind::WeightedRoundRobin:
            return "WeightedRoundRobin";
        }
        return "Unknown";
    });

// --- WRR fixed-point fairness -------------------------------------------------

/**
 * Long-run service shares must follow the requested rates (1/Vtick)
 * even when the rate ratio has no finite binary expansion. With the
 * old double-based deficits a 1:3 ratio accumulated rounding error
 * every replenish pass; the Q32.32 integer accounting pins the
 * shares exactly.
 */
TEST(WrrFairness, ServiceSharesTrackRatesWithoutDrift)
{
    MultiPortArbiter arb;
    arb.init(SchedulerKind::WeightedRoundRobin, 1, 2);

    // Slot 0 requests one flit per 3 us, slot 1 one per 9 us: a 3:1
    // service ratio whose weight (1/3) is inexact in binary.
    arb.setEligible(0, 0, 0, 0, microseconds(3));
    arb.setEligible(0, 1, 0, 1, microseconds(9));

    constexpr int kServes = 400000;
    std::map<int, int> served;
    for (int i = 0; i < kServes; ++i)
        ++served[arb.pick(0)];

    // Exactly 3:1 up to the +-1 flit granularity of the rotation.
    const double share0 =
        static_cast<double>(served[0]) / static_cast<double>(kServes);
    EXPECT_NEAR(share0, 0.75, 0.001);
    EXPECT_EQ(served[0] + served[1], kServes);
}

/** The legacy scheduler shares the fixed-point accounting. */
TEST(WrrFairness, LegacySchedulerMatchesFixedPointShares)
{
    WeightedRoundRobinScheduler wrr;
    const std::vector<Candidate> candidates = {
        {0, 0, 0, microseconds(3)},
        {1, 0, 1, microseconds(9)},
    };

    constexpr int kServes = 400000;
    int served0 = 0;
    for (int i = 0; i < kServes; ++i) {
        if (candidates[wrr.pick(candidates)].slot == 0)
            ++served0;
    }
    const double share0 =
        static_cast<double>(served0) / static_cast<double>(kServes);
    EXPECT_NEAR(share0, 0.75, 0.001);
}

/**
 * Replenishment is exact: after any number of rounds the deficits of
 * a 1:2 population stay on the lattice {0, quantum/2, quantum, ...}
 * so the faster slot never "saves up" more than one extra serve.
 * Observable consequence: the serve pattern is perfectly periodic.
 */
TEST(WrrFairness, ServePatternIsPeriodic)
{
    MultiPortArbiter arb;
    arb.init(SchedulerKind::WeightedRoundRobin, 1, 2);
    arb.setEligible(0, 0, 0, 0, microseconds(4));
    arb.setEligible(0, 1, 0, 1, microseconds(8));

    std::vector<int> first(6);
    for (int& winner : first)
        winner = arb.pick(0);
    // Every later window of 6 serves must repeat the first exactly;
    // drift would eventually insert an extra serve somewhere.
    for (int window = 0; window < 50000; ++window) {
        for (int i = 0; i < 6; ++i)
            ASSERT_EQ(arb.pick(0), first[static_cast<std::size_t>(i)])
                << "pattern broke in window " << window;
    }
}

} // namespace
