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
 *  2. Golden digests: for fixed configurations (G1-G10) the model
 *     digest and the kernel digest are checked against captured
 *     values. Any behavioural change to the router, flow control,
 *     scheduling, or traffic generation moves the model digest.
 *     Performance work (the two-tier event queue, typed events, ring
 *     buffers, credit coalescing, route tables, lazy credits) must
 *     NOT move it - that is the point of the test. The kernel digest
 *     pins the event counts; scheduling work may move it on purpose.
 *
 * If a deliberate behavioural change (a bug fix, a model change)
 * moves a model digest, or a scheduling change moves a kernel digest,
 * re-capture it: build Release, run this test, and paste the printed
 * "model=0x... kernel=0x..." values below. Never update a model
 * golden for a change that is supposed to be purely mechanical.
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

/** G9: as G1's single switch, with virtual cut-through switching
 *  configured as tests/test_vct.cc does (default router, load 0.7,
 *  80% RT, 1+3 frames): the NI's whole-message credit gate. */
ExperimentConfig
goldenConfig9()
{
    ExperimentConfig cfg;
    cfg.router.switching = config::SwitchingKind::VirtualCutThrough;
    cfg.traffic.inputLoad = 0.7;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 3;
    cfg.timeScale = 0.05;
    return cfg;
}

/** G10: G1 with a full crossbar: per-VC crossbar servers and the
 *  configured discipline at the VC output multiplexer. */
ExperimentConfig
goldenConfig10()
{
    ExperimentConfig cfg = goldenConfig1();
    cfg.router.crossbar = config::CrossbarKind::Full;
    return cfg;
}

/**
 * Golden digests, one (model, kernel) pair per configuration.
 *
 * Model digests (ExperimentResult::modelDigest) fingerprint what the
 * network did. G1-G8 continue the digests captured since the
 * conservative-PDES change (canonical link keys, threshold metrics
 * gating, per-node lanes); they were re-captured once when
 * eventsFired left the digest, on the unchanged model, and G9/G10
 * were captured at the same point. Sharded runs must reproduce them
 * at any shard count (tests/test_pdes.cc).
 *
 * Kernel digests (ExperimentResult::kernelDigest) pin eventsFired
 * and elidedEvents. They were re-captured once, after link credits
 * became lazy (a returned credit costs an event only while an output
 * VC is starved for it): that change removes most credit-delivery
 * events by design while every model digest stays put. A change that
 * moves only kernel digests is a scheduling change; one that moves a
 * model digest is a behavioural change.
 */
struct Golden
{
    const char* name;
    std::uint64_t model;
    std::uint64_t kernel;
};

constexpr Golden kGolden1{"G1", 0x7415a97f5b199bcaULL,
                            0xa6f89913e0f22df9ULL};
constexpr Golden kGolden2{"G2", 0x95bc0f03397f8d52ULL,
                            0x12fe9bdaff091e55ULL};
constexpr Golden kGolden3{"G3", 0xfa7d7c6d24458415ULL,
                            0x0150dd56049cc31cULL};
constexpr Golden kGolden4{"G4", 0x8a41ac9ad0efa734ULL,
                            0x05688a2856b488beULL};
constexpr Golden kGolden5{"G5", 0xa340aad5a9f9265cULL,
                            0xf64e342fa2abbe1eULL};
constexpr Golden kGolden6{"G6", 0xf9a7d480055b6304ULL,
                            0xc781be38e593d399ULL};
constexpr Golden kGolden7{"G7", 0xce13b31ed1539d6bULL,
                            0xd99f3d2820e9427dULL};
constexpr Golden kGolden8{"G8", 0x593dc4650528ccfeULL,
                            0xb4799b672c4968f6ULL};
constexpr Golden kGolden9{"G9", 0x194b7bb2b838c7c9ULL,
                            0xc45fa982c3442873ULL};
constexpr Golden kGolden10{"G10", 0x3515ae1031eaa0bdULL,
                             0x33128df1c02a3508ULL};

/** Checks @p r against @p golden, printing both digests so a
 *  deliberate change can re-capture them. */
void
expectGolden(const ExperimentResult& r, const Golden& golden)
{
    std::printf("%s model=0x%016llx kernel=0x%016llx "
                "(events %llu, elided %llu)\n",
                golden.name,
                static_cast<unsigned long long>(r.modelDigest()),
                static_cast<unsigned long long>(r.kernelDigest()),
                static_cast<unsigned long long>(r.eventsFired),
                static_cast<unsigned long long>(r.elidedEvents));
    EXPECT_EQ(r.modelDigest(), golden.model) << golden.name;
    EXPECT_EQ(r.kernelDigest(), golden.kernel) << golden.name;
}

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
    EXPECT_EQ(a.modelDigest(), b.modelDigest());
}

TEST(Determinism, RunTwiceIsBitIdentical)
{
    const ExperimentResult a = runExperiment(goldenConfig1());
    const ExperimentResult b = runExperiment(goldenConfig1());
    expectIdentical(a, b);
    EXPECT_EQ(a.kernelDigest(), b.kernelDigest());
}

TEST(Determinism, FatMeshRunTwiceIsBitIdentical)
{
    const ExperimentResult a = runExperiment(goldenConfig3());
    const ExperimentResult b = runExperiment(goldenConfig3());
    expectIdentical(a, b);
    EXPECT_EQ(a.kernelDigest(), b.kernelDigest());
}

TEST(Determinism, HashCoversResultFields)
{
    ExperimentResult a;
    ExperimentResult b;
    EXPECT_EQ(a.modelDigest(), b.modelDigest());
    EXPECT_EQ(a.kernelDigest(), b.kernelDigest());
    // Event counts move the kernel digest only.
    b.eventsFired = 1;
    EXPECT_EQ(a.modelDigest(), b.modelDigest());
    EXPECT_NE(a.kernelDigest(), b.kernelDigest());
    b = a;
    b.elidedEvents = 1;
    EXPECT_EQ(a.modelDigest(), b.modelDigest());
    EXPECT_NE(a.kernelDigest(), b.kernelDigest());
    // Model outputs move the model digest only.
    b = a;
    b.meanIntervalMs = 33.0;
    EXPECT_NE(a.modelDigest(), b.modelDigest());
    EXPECT_EQ(a.kernelDigest(), b.kernelDigest());
    b = a;
    b.truncated = true;
    EXPECT_NE(a.modelDigest(), b.modelDigest());
    // Machine-dependent fields must not contribute to either.
    b = a;
    b.wallSeconds = 123.0;
    b.eventsPerSec = 4.5e6;
    b.idleTicksSkipped = 99;
    EXPECT_EQ(a.modelDigest(), b.modelDigest());
    EXPECT_EQ(a.kernelDigest(), b.kernelDigest());
}

/**
 * Observation must not perturb: a run with every observer enabled
 * (telemetry, trace, flight recorder) produces the same digests as
 * the plain run - no extra events, no extra RNG draws, identical
 * measured outputs. Checked against the golden too.
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
    expectGolden(observed, kGolden1);

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
    RecordProperty("digest", r.modelDigest());
    expectGolden(r, kGolden1);
}

TEST(Determinism, MatchesGoldenSingleSwitchFifo)
{
    expectGolden(runExperiment(goldenConfig2()), kGolden2);
}

/** The fat mesh under each fat-link policy: G3 is the paper's
 *  least-loaded pick; G7/G8 pin the static and random policies. */
ExperimentConfig
fatMeshConfig(config::FatLinkPolicy policy)
{
    ExperimentConfig cfg = goldenConfig3();
    cfg.network.fatLinkPolicy = policy;
    return cfg;
}

TEST(Determinism, MatchesGoldenFatMesh)
{
    expectGolden(
        runExperiment(fatMeshConfig(config::FatLinkPolicy::LeastLoaded)),
        kGolden3);
    expectGolden(
        runExperiment(fatMeshConfig(config::FatLinkPolicy::Static)),
        kGolden7);
    expectGolden(
        runExperiment(fatMeshConfig(config::FatLinkPolicy::Random)),
        kGolden8);
}

TEST(Determinism, MatchesGoldenMesh)
{
    const ExperimentResult r = runExperiment(goldenConfig4());
    expectGolden(r, kGolden4);
    expectIdentical(r, runExperiment(goldenConfig4()));
}

TEST(Determinism, MatchesGoldenTorus)
{
    const ExperimentResult r = runExperiment(goldenConfig5());
    expectGolden(r, kGolden5);
    expectIdentical(r, runExperiment(goldenConfig5()));
}

TEST(Determinism, MatchesGoldenClos)
{
    const ExperimentResult r = runExperiment(goldenConfig6());
    expectGolden(r, kGolden6);
    expectIdentical(r, runExperiment(goldenConfig6()));
}

/** Virtual cut-through: a header that the credit gate holds back
 *  waits on credits without any flit buffered. */
TEST(Determinism, MatchesGoldenVirtualCutThrough)
{
    const ExperimentResult r = runExperiment(goldenConfig9());
    EXPECT_FALSE(r.truncated);
    expectGolden(r, kGolden9);
}

/** Full crossbar: per-VC crossbar servers feed the output VCs. */
TEST(Determinism, MatchesGoldenFullCrossbar)
{
    expectGolden(runExperiment(goldenConfig10()), kGolden10);
}

/** Both digests hold however a multi-router golden is sharded: the
 *  PDES epoch loop calls the same settle, credit and arbitration
 *  paths per shard (shards alone are covered exhaustively in
 *  test_pdes.cc). The single-switch goldens always run on one
 *  shard. */
TEST(Determinism, FatMeshGoldenAcrossShards)
{
    const struct
    {
        ExperimentConfig cfg;
        Golden golden;
    } cases[] = {
        {fatMeshConfig(config::FatLinkPolicy::LeastLoaded), kGolden3},
        {goldenConfig4(), kGolden4},
        {goldenConfig5(), kGolden5},
        {goldenConfig6(), kGolden6},
        {fatMeshConfig(config::FatLinkPolicy::Static), kGolden7},
        {fatMeshConfig(config::FatLinkPolicy::Random), kGolden8},
    };
    for (const auto& c : cases) {
        for (const int shards : {2, 4, 8}) {
            ExperimentConfig cfg = c.cfg;
            cfg.shards = shards;
            const ExperimentResult r = runExperiment(cfg);
            EXPECT_EQ(r.modelDigest(), c.golden.model)
                << c.golden.name << " shards=" << shards;
            EXPECT_EQ(r.kernelDigest(), c.golden.kernel)
                << c.golden.name << " shards=" << shards;
        }
    }
}

/** idleTicksSkipped reports, never perturbs: it is excluded from the
 *  digests but must be nonzero whenever the run has idle stretches. */
TEST(Determinism, IdleTicksSkippedIsReportingOnly)
{
    const ExperimentResult r = runExperiment(goldenConfig1());
    EXPECT_EQ(r.modelDigest(), kGolden1.model);
    EXPECT_GT(r.idleTicksSkipped, 0u);
    ExperimentResult moved = r;
    moved.idleTicksSkipped += 12345;
    EXPECT_EQ(moved.modelDigest(), kGolden1.model);
    EXPECT_EQ(moved.kernelDigest(), kGolden1.kernel);
}

} // namespace
