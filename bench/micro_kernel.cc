/**
 * @file
 * google-benchmark microbenchmarks of the simulator hot paths: event
 * queue operations, random number generation, scheduler picks and a
 * small end-to-end experiment (events per second).
 */

#include <benchmark/benchmark.h>

#include "core/mediaworm.hh"

namespace {

using namespace mediaworm;

void
BM_EventQueueScheduleFire(benchmark::State& state)
{
    sim::Simulator simulator(7);
    const int fanout = static_cast<int>(state.range(0));
    std::vector<std::unique_ptr<sim::CallbackEvent>> events;
    events.reserve(static_cast<std::size_t>(fanout));
    for (int i = 0; i < fanout; ++i) {
        events.push_back(std::make_unique<sim::CallbackEvent>(
            [] {}, "bench"));
    }
    sim::Tick when = 1;
    for (auto _ : state) {
        for (auto& event : events)
            simulator.schedule(*event,
                               when + static_cast<sim::Tick>(
                                   simulator.rng().uniformInt(1000)));
        simulator.run(when + 1000);
        when += 2000;
    }
    state.SetItemsProcessed(state.iterations() * fanout);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(16)->Arg(256)->Arg(4096);

/**
 * The dominant real scheduling pattern: each fired event reschedules
 * itself 1-4 cycles ahead, like the router's multiplexer service
 * slots and link deliveries. Exercises the near-tier fast path.
 */
void
BM_EventQueueNearFuture(benchmark::State& state)
{
    constexpr sim::Tick kCycle = 80000; // 400 Mbps, 32-bit flits
    const int population = static_cast<int>(state.range(0));
    sim::Simulator simulator(7);
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<sim::CallbackEvent>> events;
    events.reserve(static_cast<std::size_t>(population));
    for (int i = 0; i < population; ++i) {
        auto event = std::make_unique<sim::CallbackEvent>([] {},
                                                          "bench");
        sim::CallbackEvent* raw = event.get();
        raw->setCallback([&simulator, &fired, raw] {
            ++fired;
            const sim::Tick delta =
                (1 + static_cast<sim::Tick>(
                         simulator.rng().uniformInt(4)))
                * kCycle;
            simulator.schedule(*raw, simulator.now() + delta);
        });
        events.push_back(std::move(event));
    }
    sim::Tick horizon = 0;
    for (auto _ : state) {
        if (horizon == 0) {
            for (auto& event : events)
                simulator.schedule(*event, horizon + kCycle);
        }
        horizon += 100 * kCycle;
        simulator.run(horizon);
    }
    for (auto& event : events)
        simulator.deschedule(*event);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueNearFuture)->Arg(64)->Arg(1024);

/**
 * The multi-hop torus's hot pattern: many routers hand link
 * deliveries (canonical keys, arriving in no particular order) plus
 * some counter-keyed wakeups to one future tick. The near tier must
 * absorb the whole burst - tail appends, then one sort when the
 * cursor reaches the bucket - instead of spilling it to the far heap
 * once an in-place walk runs past kMaxInsertScan.
 */
void
BM_EventQueueSameTickBurst(benchmark::State& state)
{
    constexpr sim::Tick kCycle = 80000; // 400 Mbps, 32-bit flits
    const auto burst = static_cast<std::size_t>(state.range(0));
    sim::Simulator simulator(7);
    std::vector<std::uint64_t> keys(burst);
    for (std::size_t i = 0; i < burst; ++i)
        keys[i] = i;
    for (std::size_t i = burst - 1; i > 0; --i)
        std::swap(keys[i], keys[simulator.rng().uniformInt(i + 1)]);
    std::vector<std::unique_ptr<sim::CallbackEvent>> events;
    for (std::size_t i = 0; i < burst; ++i) {
        events.push_back(
            std::make_unique<sim::CallbackEvent>([] {}, "bench"));
        if (i % 8 != 0) // every 8th stays counter-keyed
            events.back()->setCanonicalSeq(keys[i]);
    }
    sim::CallbackEvent anchor([] {}, "bench");
    for (auto _ : state) {
        // The anchor re-anchors the drained near tier one cycle out;
        // the burst lands a cycle later, ahead of the cursor.
        const sim::Tick now = simulator.now();
        simulator.schedule(anchor, now + kCycle);
        for (auto& event : events)
            simulator.schedule(*event, now + 2 * kCycle);
        simulator.run(now + 2 * kCycle);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_EventQueueSameTickBurst)->Arg(64)->Arg(512);

/** Link transfer: flits and (coalesced) credits through the pipes. */
void
BM_LinkFlitCreditTransfer(benchmark::State& state)
{
    class Sink final : public router::FlitReceiver,
                       public router::CreditReceiver
    {
      public:
        explicit Sink(router::Link& reverse) : reverse_(reverse) {}
        void
        receiveFlit(const router::Flit& flit, int vc) override
        {
            (void)flit;
            reverse_.sendCredit(vc);
        }
        void creditReturned(int vc) override { credits_ += vc; }
        std::uint64_t credits_ = 0;

      private:
        router::Link& reverse_;
    };

    sim::Simulator simulator(7);
    const sim::Tick delay = 2 * 80000; // two cycles
    router::Link link(simulator, delay, "bench");
    Sink sink(link);
    link.connectReceiver(&sink);
    link.connectCreditReceiver(&sink);

    router::Flit flit;
    std::uint64_t sent = 0;
    for (auto _ : state) {
        for (int burst = 0; burst < 64; ++burst) {
            link.sendFlit(flit, burst % 4);
            ++sent;
        }
        simulator.run(simulator.now() + 10 * delay);
    }
    benchmark::DoNotOptimize(sink.credits_);
    state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_LinkFlitCreditTransfer);

void
BM_RngUniform(benchmark::State& state)
{
    sim::Rng rng(3);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.uniformInt(1000);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void
BM_NormalDistribution(benchmark::State& state)
{
    sim::Rng rng(3);
    sim::NormalDistribution normal(16666.0, 3333.0);
    double sink = 0;
    for (auto _ : state)
        sink += normal.sample(rng);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NormalDistribution);

void
BM_SchedulerPick(benchmark::State& state)
{
    const auto kind =
        static_cast<config::SchedulerKind>(state.range(0));
    auto scheduler = router::makeScheduler(kind);
    std::vector<router::Candidate> candidates;
    sim::Rng rng(11);
    for (int i = 0; i < 16; ++i) {
        candidates.push_back(
            {i, static_cast<sim::Tick>(rng.uniformInt(1000000)),
             rng.next(), 8 * sim::kMicrosecond});
    }
    std::size_t sink = 0;
    for (auto _ : state)
        sink += scheduler->pick(candidates);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPick)
    ->Arg(static_cast<int>(config::SchedulerKind::Fifo))
    ->Arg(static_cast<int>(config::SchedulerKind::VirtualClock))
    ->Arg(static_cast<int>(config::SchedulerKind::WeightedRoundRobin));

void
BM_EndToEndExperiment(benchmark::State& state)
{
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.traffic.inputLoad = 0.6;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = 2;
        cfg.timeScale = 0.05;
        const core::ExperimentResult result =
            core::runExperiment(cfg);
        benchmark::DoNotOptimize(result.eventsFired);
        state.counters["events/s"] = benchmark::Counter(
            static_cast<double>(result.eventsFired),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_EndToEndExperiment)->Unit(benchmark::kMillisecond);

/**
 * The same experiment with per-stream telemetry collecting, so the
 * observation overhead is a tracked number. Compare its events/s
 * against BM_EndToEndExperiment in the same entry: the gap is the
 * telemetry tax (expected low single-digit percent), and the
 * telemetry-off row itself is gated against the committed baseline
 * (tools/check_bench_regression.py --threshold 0.05 in CI) so the
 * hooks can never silently slow the disabled path.
 */
void
BM_EndToEndExperimentTelemetry(benchmark::State& state)
{
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.traffic.inputLoad = 0.6;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = 2;
        cfg.timeScale = 0.05;
        cfg.obs.telemetry.enabled = true;
        const core::ExperimentResult result =
            core::runExperiment(cfg);
        benchmark::DoNotOptimize(result.eventsFired);
        benchmark::DoNotOptimize(result.observations);
        state.counters["events/s"] = benchmark::Counter(
            static_cast<double>(result.eventsFired),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_EndToEndExperimentTelemetry)
    ->Unit(benchmark::kMillisecond);

/**
 * Multi-hop end-to-end rows on the topology-graph path: a side x side
 * torus under dimension-order routing with dateline VC classes, the
 * shape the Fig-3/5/9 multi-hop comparisons run on. Tracks the cost of
 * table-routed wormhole traversal (route table lookups, VC-class
 * mapping, per-hop credit loops) the single-switch headline never
 * exercises. The 4x4 row is gated against the committed baseline in
 * CI; the 8x8 row (shorter run, 64 routers sharing each tick) is
 * tracked, not gated - its events/s against the single-switch
 * headline is ROADMAP item 2's size-invariance ratio.
 */
void
BM_EndToEndTorus(benchmark::State& state)
{
    const int side = static_cast<int>(state.range(0));
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.network.topology = config::TopologyKind::Torus;
        cfg.network.meshWidth = side;
        cfg.network.meshHeight = side;
        cfg.network.endpointsPerSwitch = 1;
        cfg.traffic.inputLoad = 0.6;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = side > 4 ? 1 : 2;
        cfg.timeScale = side > 4 ? 0.01 : 0.05;
        const core::ExperimentResult result =
            core::runExperiment(cfg);
        benchmark::DoNotOptimize(result.eventsFired);
        state.counters["events/s"] = benchmark::Counter(
            static_cast<double>(result.eventsFired),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_EndToEndTorus)
    ->ArgName("side")
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Batched router-tick dispatch A/B (DESIGN.md section 13): the same
 * small experiment with the legacy per-event loop (batched:0) and
 * with one-virtual-call-per-router-tick batching plus lazy-tick
 * elision (batched:1). Results are bit-identical either way
 * (tests/test_determinism.cc); the events/s gap is the dispatch +
 * elision win. The batched:1 row is gated against the committed
 * baseline in CI.
 */
void
BM_BatchedRouterTick(benchmark::State& state)
{
    const bool batched = state.range(0) != 0;
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.traffic.inputLoad = 0.6;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = 2;
        cfg.timeScale = 0.05;
        cfg.batchedDispatch = batched;
        const core::ExperimentResult result =
            core::runExperiment(cfg);
        benchmark::DoNotOptimize(result.eventsFired);
        state.counters["events/s"] = benchmark::Counter(
            static_cast<double>(result.eventsFired),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_BatchedRouterTick)
    ->ArgName("batched")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Idle-epoch fast-forward A/B (DESIGN.md section 14): a nearly idle
 * router (2% offered load) whose simulated time is dominated by
 * empty stretches between frames. With fastforward:0 the kernel
 * still walks every lazy-elision drain scan on the legacy path;
 * with fastforward:1 the O(1) lazy index lets the clock jump
 * straight between real events. Results are bit-identical either
 * way (tests/test_determinism.cc); the wall-time gap is the pure
 * fast-forward win, and the skipped_ticks counter shows how much
 * simulated time never touched the calendar ring.
 */
void
BM_IdleEpochFastForward(benchmark::State& state)
{
    const bool fast_forward = state.range(0) != 0;
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.traffic.inputLoad = 0.02;
        cfg.traffic.realTimeFraction = 1.0;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = 2;
        cfg.timeScale = 0.05;
        cfg.fastForward = fast_forward;
        const core::ExperimentResult result =
            core::runExperiment(cfg);
        benchmark::DoNotOptimize(result.eventsFired);
        state.counters["events/s"] = benchmark::Counter(
            static_cast<double>(result.eventsFired),
            benchmark::Counter::kIsIterationInvariantRate);
        state.counters["skipped_ticks"] = benchmark::Counter(
            static_cast<double>(result.idleTicksSkipped));
    }
}
BENCHMARK(BM_IdleEpochFastForward)
    ->ArgName("fastforward")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Conservative-PDES scaling: one 4x2 fat-mesh experiment partitioned
 * across N shards (Arg = ExperimentConfig::shards; 1 is the classic
 * single-threaded kernel and the determinism oracle - every arg
 * produces the bit-identical result, see tests/test_pdes.cc). The
 * interesting comparison is events/s across args on the same host:
 * speedup is bounded by the host's core count and by how much work
 * each 160 ns lookahead window holds, so read these rows together
 * with the entry's recorded host metadata (cores, CPU model) in
 * BENCH_kernel.json - a 1-core host legitimately shows slowdown, not
 * speedup, and that is worth recording too.
 */
void
BM_EndToEndFatMeshShards(benchmark::State& state)
{
    for (auto _ : state) {
        core::ExperimentConfig cfg;
        cfg.network.topology = config::TopologyKind::FatMesh;
        cfg.network.meshWidth = 4;
        cfg.network.meshHeight = 2;
        cfg.network.fatFactor = 2;
        cfg.network.endpointsPerSwitch = 4;
        cfg.router.numPorts = 10;
        cfg.traffic.inputLoad = 0.7;
        cfg.traffic.realTimeFraction = 0.6;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = 2;
        cfg.timeScale = 0.05;
        cfg.shards = static_cast<int>(state.range(0));
        const core::ExperimentResult result =
            core::runExperiment(cfg);
        benchmark::DoNotOptimize(result.eventsFired);
        state.counters["events/s"] = benchmark::Counter(
            static_cast<double>(result.eventsFired),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_EndToEndFatMeshShards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    // Rates must divide by wall-clock time, not the main thread's
    // CPU time: with N shards the main thread spends most of the run
    // blocked on the epoch barrier, which would inflate events/s by
    // exactly the factor the benchmark exists to measure.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
