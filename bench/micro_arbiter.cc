/**
 * @file
 * Arbitration-only microbenchmarks: the router::MultiPortArbiter
 * kernels on one mux across scheduler kinds and VC counts, the
 * head-field layout, and a whole-router round of per-port picks.
 *
 * The kernel benchmarks run a steady-state workload: every slot
 * holds a flit, each round picks a winner and the winner's next head
 * arrives with a fresh (stamp, seq).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "config/router_config.hh"
#include "router/arbiter.hh"
#include "sim/random.hh"

namespace {

using namespace mediaworm;
using router::MultiPortArbiter;
using sim::Tick;

constexpr Tick kCycle = 80000; // 400 Mbps, 32-bit flits.

/** A slot's requested rate; mixes CBR-like and best-effort flows. */
Tick
vtickFor(int slot)
{
    switch (slot % 4) {
      case 0:
        return 4 * sim::kMicrosecond;
      case 1:
        return 8 * sim::kMicrosecond;
      case 2:
        return 33 * sim::kMicrosecond;
      default:
        return router::kBestEffortVtick;
    }
}

void
BM_ArbiterKernelPick(benchmark::State& state)
{
    const auto kind =
        static_cast<config::SchedulerKind>(state.range(0));
    const int num_vcs = static_cast<int>(state.range(1));

    MultiPortArbiter arb;
    arb.init(kind, 1, num_vcs);
    sim::Rng rng(17);
    std::uint64_t seq = 0;
    Tick now = 0;
    for (int v = 0; v < num_vcs; ++v) {
        arb.setEligible(0, v,
                        static_cast<Tick>(rng.uniformInt(1000000)),
                        seq++, vtickFor(v));
    }

    for (auto _ : state) {
        now += kCycle;
        const int winner = arb.pick(0);
        benchmark::DoNotOptimize(winner);
        // The winner's head leaves; the next queued flit arrives.
        arb.setEligible(
            0, winner,
            now + static_cast<Tick>(rng.uniformInt(1000000)), seq++,
            vtickFor(winner));
    }
    state.SetItemsProcessed(state.iterations());
}

void
arbiterArgs(benchmark::internal::Benchmark* bench)
{
    bench->ArgNames({"kind", "vcs"});
    for (int kind : {static_cast<int>(config::SchedulerKind::Fifo),
                     static_cast<int>(config::SchedulerKind::RoundRobin),
                     static_cast<int>(config::SchedulerKind::VirtualClock),
                     static_cast<int>(
                         config::SchedulerKind::WeightedRoundRobin)}) {
        for (int vcs : {4, 8, 16, 64})
            bench->Args({kind, vcs});
    }
}

BENCHMARK(BM_ArbiterKernelPick)->Apply(arbiterArgs);

/**
 * SoA-vs-AoS layout A/B for one Virtual Clock arbitration round.
 *
 * The arbiter stores its cached head fields in struct-of-arrays
 * form (a HeadKey array plus a vtick array); before DESIGN.md section 13 they were a
 * vector of HeadRecord structs embedded among the rest of the per-VC
 * hot state. This pair isolates the layout effect alone: both
 * variants run the identical (stamp, fifoSeq) lexicographic kernel
 * over the same slot data, but the AoS variant strides through
 * fat per-VC records sized like the old InputVc/OutputVc structs, so
 * each comparison drags a full cache line of unrelated state.
 */

/** The pre-SoA layout: head fields embedded in a fat per-VC struct
 *  (padding stands in for buffers, pointers and flags). */
struct FatVcRecord
{
    Tick stamp = 0;
    std::uint64_t fifoSeq = 0;
    Tick vtick = router::kBestEffortVtick;
    char padding[104]; // the rest of the old per-VC hot struct
};

void
BM_ArbiterRoundAos(benchmark::State& state)
{
    const int num_vcs = static_cast<int>(state.range(0));
    std::vector<FatVcRecord> slots(
        static_cast<std::size_t>(num_vcs));
    sim::Rng rng(23);
    std::uint64_t seq = 0;
    Tick now = 0;
    for (auto& s : slots) {
        s.stamp = static_cast<Tick>(rng.uniformInt(1000000));
        s.fifoSeq = seq++;
    }

    const std::uint64_t mask = num_vcs >= 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << static_cast<unsigned>(num_vcs)) - 1;
    for (auto _ : state) {
        now += kCycle;
        std::uint64_t m = mask;
        int best = __builtin_ctzll(m);
        m &= m - 1;
        while (m != 0) {
            const int slot = __builtin_ctzll(m);
            m &= m - 1;
            const FatVcRecord& c =
                slots[static_cast<std::size_t>(slot)];
            const FatVcRecord& b =
                slots[static_cast<std::size_t>(best)];
            if (c.stamp < b.stamp
                || (c.stamp == b.stamp && c.fifoSeq < b.fifoSeq))
                best = slot;
        }
        benchmark::DoNotOptimize(best);
        FatVcRecord& won = slots[static_cast<std::size_t>(best)];
        won.stamp = now + static_cast<Tick>(rng.uniformInt(1000000));
        won.fifoSeq = seq++;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ArbiterRoundSoa(benchmark::State& state)
{
    const int num_vcs = static_cast<int>(state.range(0));
    MultiPortArbiter arb;
    arb.init(config::SchedulerKind::VirtualClock, 1, num_vcs);
    sim::Rng rng(23);
    std::uint64_t seq = 0;
    Tick now = 0;
    for (int v = 0; v < num_vcs; ++v) {
        arb.setEligible(0, v,
                        static_cast<Tick>(rng.uniformInt(1000000)),
                        seq++, router::kBestEffortVtick);
    }

    for (auto _ : state) {
        now += kCycle;
        const int winner = arb.pick(0);
        benchmark::DoNotOptimize(winner);
        arb.setEligible(
            0, winner,
            now + static_cast<Tick>(rng.uniformInt(1000000)), seq++,
            router::kBestEffortVtick);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ArbiterRoundAos)->ArgName("vcs")->Arg(16)->Arg(64);
BENCHMARK(BM_ArbiterRoundSoa)->ArgName("vcs")->Arg(16)->Arg(64);

/**
 * All-ports arbitration round through one MultiPortArbiter: a pick()
 * per port, each followed by the winner's next head arriving - the
 * per-port serve sequence a router runs, in port order (DESIGN.md
 * section 14).
 */
void
BM_MultiPortArbiter(benchmark::State& state)
{
    const int num_ports = static_cast<int>(state.range(0));
    const int num_vcs = static_cast<int>(state.range(1));

    router::MultiPortArbiter arb;
    arb.init(config::SchedulerKind::VirtualClock, num_ports, num_vcs);
    sim::Rng rng(29);
    std::uint64_t seq = 0;
    Tick now = 0;
    for (int p = 0; p < num_ports; ++p) {
        for (int v = 0; v < num_vcs; ++v) {
            arb.setEligible(p, v,
                            static_cast<Tick>(rng.uniformInt(1000000)),
                            seq++, vtickFor(v));
        }
    }

    for (auto _ : state) {
        now += kCycle;
        for (int p = 0; p < num_ports; ++p) {
            const int won = arb.pick(p);
            benchmark::DoNotOptimize(won);
            arb.setEligible(
                p, won,
                now + static_cast<Tick>(rng.uniformInt(1000000)),
                seq++, vtickFor(won));
        }
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(num_ports));
}

void
multiPortArgs(benchmark::internal::Benchmark* bench)
{
    bench->ArgNames({"ports", "vcs"});
    for (int vcs : {16, 64})
        bench->Args({8, vcs});
}

BENCHMARK(BM_MultiPortArbiter)->Apply(multiPortArgs);

} // namespace

BENCHMARK_MAIN();
