/**
 * @file
 * Determinism regression tests.
 *
 * Two layers of protection:
 *
 *  1. Run-twice equality: the same config and seed must produce a
 *     bit-identical ExperimentResult within one process. Catches
 *     accidental dependence on global state, addresses, or wall
 *     time.
 *
 *  2. Golden digests: the deterministicHash() of fixed
 *     configurations (G1-G8) is checked against values captured from the
 *     seed implementation (binary-heap event queue, std::deque data
 *     path). Any behavioural change to the kernel, router, flow
 *     control, scheduling, or traffic generation moves these
 *     digests. Performance work (the two-tier event queue, typed
 *     events, ring buffers, credit coalescing, route tables) must
 *     NOT move them - that is the point of the test.
 *
 * If a deliberate behavioural change (a bug fix, a model change)
 * moves a digest, re-capture it: build Release, run this test, and
 * paste the printed "digest=0x..." values below. Never update
 * a golden for a change that is supposed to be purely mechanical.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::core;

/** G1: 8-port single switch, Virtual Clock, 0.9 load, 80% RT. */
ExperimentConfig
goldenConfig1()
{
    ExperimentConfig cfg;
    cfg.router.numPorts = 8;
    cfg.router.numVcs = 16;
    cfg.router.flitBufferDepth = 20;
    cfg.router.scheduler = config::SchedulerKind::VirtualClock;
    cfg.traffic.inputLoad = 0.9;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.05;
    cfg.seed = 42;
    return cfg;
}

/** G2: as G1 but FIFO scheduling at saturation load. */
ExperimentConfig
goldenConfig2()
{
    ExperimentConfig cfg = goldenConfig1();
    cfg.router.scheduler = config::SchedulerKind::Fifo;
    cfg.traffic.inputLoad = 0.96;
    return cfg;
}

/** G3: 2x2 fat mesh (fat factor 2, 4 endpoints per switch). */
ExperimentConfig
goldenConfig3()
{
    ExperimentConfig cfg = goldenConfig1();
    cfg.network.topology = config::TopologyKind::FatMesh;
    cfg.network.meshWidth = 2;
    cfg.network.meshHeight = 2;
    cfg.network.fatFactor = 2;
    cfg.network.endpointsPerSwitch = 4;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 7;
    return cfg;
}

/** G4: 4x4 mesh, one endpoint per switch, dimension-order routing. */
ExperimentConfig
goldenConfig4()
{
    ExperimentConfig cfg = goldenConfig1();
    cfg.network.topology = config::TopologyKind::Mesh;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 13;
    return cfg;
}

/** G5: 4x4 torus, dimension-order with dateline VC classes. */
ExperimentConfig
goldenConfig5()
{
    ExperimentConfig cfg = goldenConfig4();
    cfg.network.topology = config::TopologyKind::Torus;
    cfg.seed = 17;
    return cfg;
}

/** G6: clos(m=2,n=2,r=4), natural multi-up routing. */
ExperimentConfig
goldenConfig6()
{
    ExperimentConfig cfg = goldenConfig1();
    cfg.network.topology = config::TopologyKind::Clos;
    cfg.network.closM = 2;
    cfg.network.closN = 2;
    cfg.network.closR = 4;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.6;
    cfg.seed = 19;
    return cfg;
}

/**
 * Golden digests. Re-captured for the conservative-PDES change:
 * link delivery events now carry canonical tie-break keys, the
 * metrics-enable event was replaced by threshold gating (one fewer
 * event), and aggregates merge per-node lanes - all deliberate
 * behavioural changes, each moving the digests exactly once. The
 * sharded executor must reproduce these same digests at any shard
 * count (tests/test_pdes.cc).
 */
constexpr std::uint64_t kGolden1 = 0xcc6ebde3298d4797ULL;
constexpr std::uint64_t kGolden2 = 0x7c2a72eb44faf63bULL;
constexpr std::uint64_t kGolden3 = 0x001106412b7e36c6ULL;

/**
 * G4-G6 pin the topology-graph shapes (mesh / torus / Clos over the
 * routing-policy layer), captured when the layer was introduced.
 * The PDES shard-invariance tests (test_pdes.cc) must reproduce
 * these same digests at any shard count.
 */
constexpr std::uint64_t kGolden4 = 0x245d70a718778ae6ULL;
constexpr std::uint64_t kGolden5 = 0x5259e430404b1f03ULL;
constexpr std::uint64_t kGolden6 = 0x6b7fa99fc7d0012fULL;

/**
 * G7/G8: G3's fat mesh under the static and random fat-link
 * policies, captured before those policies moved from route
 * closures onto route tables. The random policy draws from one
 * split RNG per switch, so G8 also pins the draw stream.
 */
constexpr std::uint64_t kGolden7 = 0xc77a5bda020a8cecULL;
constexpr std::uint64_t kGolden8 = 0x30819f21c6051be9ULL;

void
expectIdentical(const ExperimentResult& a, const ExperimentResult& b)
{
    EXPECT_EQ(a.meanIntervalMs, b.meanIntervalMs);
    EXPECT_EQ(a.stddevIntervalMs, b.stddevIntervalMs);
    EXPECT_EQ(a.meanIntervalNormMs, b.meanIntervalNormMs);
    EXPECT_EQ(a.stddevIntervalNormMs, b.stddevIntervalNormMs);
    EXPECT_EQ(a.beLatencyUs, b.beLatencyUs);
    EXPECT_EQ(a.beNetworkLatencyUs, b.beNetworkLatencyUs);
    EXPECT_EQ(a.beLatencyP99Us, b.beLatencyP99Us);
    EXPECT_EQ(a.rtMessageLatencyUs, b.rtMessageLatencyUs);
    EXPECT_EQ(a.intervalSamples, b.intervalSamples);
    EXPECT_EQ(a.framesDelivered, b.framesDelivered);
    EXPECT_EQ(a.beMessages, b.beMessages);
    EXPECT_EQ(a.flitsDelivered, b.flitsDelivered);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_EQ(a.rtStreams, b.rtStreams);
    EXPECT_EQ(a.streamsPerNode, b.streamsPerNode);
    EXPECT_EQ(a.simulatedMs, b.simulatedMs);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.deterministicHash(), b.deterministicHash());
}

TEST(Determinism, RunTwiceIsBitIdentical)
{
    const ExperimentResult a = runExperiment(goldenConfig1());
    const ExperimentResult b = runExperiment(goldenConfig1());
    expectIdentical(a, b);
}

TEST(Determinism, FatMeshRunTwiceIsBitIdentical)
{
    const ExperimentResult a = runExperiment(goldenConfig3());
    const ExperimentResult b = runExperiment(goldenConfig3());
    expectIdentical(a, b);
}

TEST(Determinism, HashCoversResultFields)
{
    ExperimentResult a;
    ExperimentResult b;
    EXPECT_EQ(a.deterministicHash(), b.deterministicHash());
    b.eventsFired = 1;
    EXPECT_NE(a.deterministicHash(), b.deterministicHash());
    b = a;
    b.meanIntervalMs = 33.0;
    EXPECT_NE(a.deterministicHash(), b.deterministicHash());
    // Machine-dependent fields must not contribute.
    b = a;
    b.wallSeconds = 123.0;
    b.eventsPerSec = 4.5e6;
    EXPECT_EQ(a.deterministicHash(), b.deterministicHash());
}

/**
 * Observation must not perturb: a run with every observer enabled
 * (telemetry, trace, flight recorder) produces the same
 * deterministicHash as the plain run - no extra events, no extra RNG
 * draws, identical measured outputs. Checked against the golden too,
 * so the observed run matches the seed implementation bit for bit.
 */
TEST(Determinism, ObserversDoNotPerturbTheHash)
{
    const ExperimentResult plain = runExperiment(goldenConfig1());

    ExperimentConfig observed_cfg = goldenConfig1();
    observed_cfg.obs.telemetry = true;
    observed_cfg.obs.trace = true;
    observed_cfg.obs.flightRecorder = true;
    const ExperimentResult observed = runExperiment(observed_cfg);

    expectIdentical(plain, observed);
    EXPECT_EQ(observed.deterministicHash(), kGolden1);

    // And the observations themselves arrived.
    ASSERT_NE(observed.observations, nullptr);
    EXPECT_TRUE(observed.observations->telemetry.has_value());
    ASSERT_TRUE(observed.observations->trace.has_value());
    EXPECT_GT(observed.observations->trace->size(), 0u);
    EXPECT_FALSE(observed.observations->telemetry->streams.empty());
    EXPECT_EQ(plain.observations, nullptr);
}

TEST(Determinism, MatchesGoldenSingleSwitchVirtualClock)
{
    const ExperimentResult r = runExperiment(goldenConfig1());
    RecordProperty("digest", r.deterministicHash());
    std::printf("G1 digest=0x%016llx\n",
                static_cast<unsigned long long>(r.deterministicHash()));
    EXPECT_EQ(r.deterministicHash(), kGolden1);
}

TEST(Determinism, MatchesGoldenSingleSwitchFifo)
{
    const ExperimentResult r = runExperiment(goldenConfig2());
    std::printf("G2 digest=0x%016llx\n",
                static_cast<unsigned long long>(r.deterministicHash()));
    EXPECT_EQ(r.deterministicHash(), kGolden2);
}

TEST(Determinism, MatchesGoldenFatMesh)
{
    // G3 is the paper's least-loaded fat-link pick; G7/G8 pin the
    // static and random policies on the same shape.
    const struct
    {
        config::FatLinkPolicy policy;
        const char* name;
        std::uint64_t golden;
    } cases[] = {
        {config::FatLinkPolicy::LeastLoaded, "G3", kGolden3},
        {config::FatLinkPolicy::Static, "G7", kGolden7},
        {config::FatLinkPolicy::Random, "G8", kGolden8},
    };
    for (const auto& c : cases) {
        ExperimentConfig cfg = goldenConfig3();
        cfg.network.fatLinkPolicy = c.policy;
        const ExperimentResult r = runExperiment(cfg);
        std::printf("%s digest=0x%016llx\n", c.name,
                    static_cast<unsigned long long>(
                        r.deterministicHash()));
        EXPECT_EQ(r.deterministicHash(), c.golden) << c.name;
    }
}

TEST(Determinism, MatchesGoldenMesh)
{
    const ExperimentResult r = runExperiment(goldenConfig4());
    std::printf("G4 digest=0x%016llx\n",
                static_cast<unsigned long long>(r.deterministicHash()));
    EXPECT_EQ(r.deterministicHash(), kGolden4);
    expectIdentical(r, runExperiment(goldenConfig4()));
}

TEST(Determinism, MatchesGoldenTorus)
{
    const ExperimentResult r = runExperiment(goldenConfig5());
    std::printf("G5 digest=0x%016llx\n",
                static_cast<unsigned long long>(r.deterministicHash()));
    EXPECT_EQ(r.deterministicHash(), kGolden5);
    expectIdentical(r, runExperiment(goldenConfig5()));
}

TEST(Determinism, MatchesGoldenClos)
{
    const ExperimentResult r = runExperiment(goldenConfig6());
    std::printf("G6 digest=0x%016llx\n",
                static_cast<unsigned long long>(r.deterministicHash()));
    EXPECT_EQ(r.deterministicHash(), kGolden6);
    expectIdentical(r, runExperiment(goldenConfig6()));
}

/**
 * Batched dispatch and lazy-tick elision are pure mechanics: turning
 * them off (the exact legacy per-event loop) must reproduce the same
 * results field for field - including eventsFired, where every elided
 * wakeup is credited at the time the legacy path would have fired it
 * as a no-op. Checked on the Fig-3-shaped single switch and the
 * Fig-9-shaped fat mesh, against each other and the goldens.
 */
TEST(Determinism, BatchedDispatchMatchesPerEventSingleSwitch)
{
    ExperimentConfig legacy_cfg = goldenConfig1();
    legacy_cfg.batchedDispatch = false;
    const ExperimentResult legacy = runExperiment(legacy_cfg);
    const ExperimentResult batched = runExperiment(goldenConfig1());
    expectIdentical(legacy, batched);
    EXPECT_EQ(legacy.deterministicHash(), kGolden1);
}

TEST(Determinism, BatchedDispatchMatchesPerEventFatMesh)
{
    ExperimentConfig legacy_cfg = goldenConfig3();
    legacy_cfg.batchedDispatch = false;
    const ExperimentResult legacy = runExperiment(legacy_cfg);
    const ExperimentResult batched = runExperiment(goldenConfig3());
    expectIdentical(legacy, batched);
    EXPECT_EQ(legacy.deterministicHash(), kGolden3);
}

/** The goldens hold however the fat mesh is sharded: the PDES epoch
 *  loop calls the same settle and arbitration paths per shard
 *  (shards alone are covered exhaustively in test_pdes.cc). */
TEST(Determinism, FatMeshGoldenAcrossShards)
{
    for (const int shards : {2, 4}) {
        ExperimentConfig cfg = goldenConfig3();
        cfg.shards = shards;
        const ExperimentResult r = runExperiment(cfg);
        EXPECT_EQ(r.deterministicHash(), kGolden3)
            << "shards=" << shards;
    }
}

/** idleTicksSkipped reports, never perturbs: it is excluded from the
 *  hash but must be nonzero whenever the run has idle stretches. */
TEST(Determinism, IdleTicksSkippedIsReportingOnly)
{
    const ExperimentResult r = runExperiment(goldenConfig1());
    EXPECT_EQ(r.deterministicHash(), kGolden1);
    EXPECT_GT(r.idleTicksSkipped, 0u);
    ExperimentResult moved = r;
    moved.idleTicksSkipped += 12345;
    EXPECT_EQ(moved.deterministicHash(), kGolden1);
}

} // namespace
