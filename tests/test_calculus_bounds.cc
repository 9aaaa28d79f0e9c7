/**
 * @file
 * Soundness suite for the delay-bound oracle (ctest label
 * "calculus"): across miniature versions of the paper's Figure 3
 * operating points, every admitted stream's simulated worst-case
 * message delay must respect its analytic bound, and the --provision
 * search must return allocations whose SLA the subsequent simulation
 * meets with zero violations.
 *
 * Separate executable (like the fidelity suite) because each case
 * runs a full simulation; the fast structural tests live in
 * test_calculus.cc inside mediaworm_tests.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "calculus/oracle.hh"
#include "calculus/provision.hh"
#include "core/experiment.hh"
#include "obs/telemetry.hh"

namespace {

using namespace mediaworm;

/** A miniature Figure-3 point: full stream mix, compressed frames. */
core::ExperimentConfig
miniature(config::SchedulerKind scheduler, double load)
{
    core::ExperimentConfig cfg;
    cfg.router.scheduler = scheduler;
    cfg.traffic.inputLoad = load;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 2;
    cfg.traffic.measuredFrames = 6;
    cfg.timeScale = 0.1;
    cfg.seed = 1;
    cfg.obs.telemetry = true;
    cfg.calculus.enabled = true;
    return cfg;
}

/**
 * The suite's core invariant: for every stream with a finite
 * analytic bound, the whole-run observed worst message delay stays
 * at or under it. Returns the number of streams actually checked.
 */
int
expectSimulationWithinBounds(const core::ExperimentResult& r)
{
    EXPECT_NE(r.bounds, nullptr);
    EXPECT_NE(r.observations, nullptr);
    if (r.bounds == nullptr || r.observations == nullptr
        || !r.observations->telemetry)
        return 0;

    int checked = 0;
    for (const calculus::StreamBound& b : r.bounds->streams) {
        const obs::StreamSeries* series =
            r.observations->telemetry->find(b.stream);
        if (series == nullptr || series->messages == 0)
            continue;
        if (!b.bounded)
            continue; // "no guarantee" is trivially respected
        EXPECT_LE(series->worstMessageDelayUs, b.boundUs)
            << "stream " << b.stream.value() << " ("
            << b.src.value() << "->" << b.dst.value()
            << ") observed worst " << series->worstMessageDelayUs
            << " us above its analytic bound " << b.boundUs
            << " us";
        ++checked;
    }
    return checked;
}

TEST(CalculusBounds, VirtualClockAdmissibleLoad)
{
    const core::ExperimentResult r =
        core::runExperiment(miniature(
            config::SchedulerKind::VirtualClock, 0.8));
    ASSERT_NE(r.bounds, nullptr);
    // Inside the paper's guarantee region every stream has a finite
    // bound, and the simulation respects each one.
    EXPECT_TRUE(r.bounds->allBounded());
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
}

TEST(CalculusBounds, FifoModerateLoad)
{
    const core::ExperimentResult r = core::runExperiment(
        miniature(config::SchedulerKind::Fifo, 0.8));
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
}

TEST(CalculusBounds, WeightedRoundRobinModerateLoad)
{
    const core::ExperimentResult r = core::runExperiment(
        miniature(config::SchedulerKind::WeightedRoundRobin, 0.8));
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
}

TEST(CalculusBounds, FatMeshVirtualClock)
{
    core::ExperimentConfig cfg =
        miniature(config::SchedulerKind::VirtualClock, 0.6);
    cfg.network.topology = config::TopologyKind::FatMesh;
    const core::ExperimentResult r = core::runExperiment(cfg);
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
}

/**
 * Multi-hop soundness on the topology-graph shapes: the per-hop
 * TFA/SFA walk over table-built routes must still dominate every
 * observed delay. Loads sit inside the guarantee region so the
 * check is non-vacuous (finite bounds exist to violate).
 */
TEST(CalculusBounds, MeshMultiHopBoundsHold)
{
    core::ExperimentConfig cfg =
        miniature(config::SchedulerKind::VirtualClock, 0.4);
    cfg.network.topology = config::TopologyKind::Mesh;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    const core::ExperimentResult r = core::runExperiment(cfg);
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
    // Multi-hop routes really appear: some stream crosses several
    // routers.
    int max_hops = 0;
    for (const calculus::StreamBound& b : r.bounds->streams)
        max_hops = std::max(max_hops, b.hops);
    EXPECT_GE(max_hops, 3);
}

TEST(CalculusBounds, TorusMultiHopBoundsHold)
{
    // Two dateline VC classes: the oracle must fall back to the
    // blind-multiplexing residual (the stamp-rate branch assumes
    // lane-exact FIFO sharing) and still dominate the simulation.
    core::ExperimentConfig cfg =
        miniature(config::SchedulerKind::VirtualClock, 0.4);
    cfg.network.topology = config::TopologyKind::Torus;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    const core::ExperimentResult r = core::runExperiment(cfg);
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
}

TEST(CalculusBounds, ClosMultiHopBoundsHold)
{
    core::ExperimentConfig cfg =
        miniature(config::SchedulerKind::VirtualClock, 0.4);
    cfg.network.topology = config::TopologyKind::Clos;
    cfg.network.closM = 2;
    cfg.network.closN = 2;
    cfg.network.closR = 4;
    const core::ExperimentResult r = core::runExperiment(cfg);
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);
}

TEST(CalculusBounds, AdaptiveRoutingRefusesToCertify)
{
    // Adaptive paths depend on run-time load; the oracle must report
    // every stream unbounded rather than guess a path.
    core::ExperimentConfig cfg =
        miniature(config::SchedulerKind::VirtualClock, 0.4);
    cfg.network.topology = config::TopologyKind::Torus;
    cfg.network.routing = config::RoutingKind::Adaptive;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    const core::ExperimentResult r = core::runExperiment(cfg);
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_FALSE(r.bounds->streams.empty());
    EXPECT_EQ(r.bounds->unboundedStreams,
              static_cast<int>(r.bounds->streams.size()));
}

TEST(CalculusBounds, SaturatedFifoReportsNoGuarantee)
{
    // Full-load FIFO is the paper's missed-deadline region: the
    // oracle must refuse to certify it rather than emit a number the
    // run could exceed.
    const core::ExperimentResult r = core::runExperiment(
        miniature(config::SchedulerKind::Fifo, 1.0));
    ASSERT_NE(r.bounds, nullptr);
    EXPECT_GT(r.bounds->unboundedStreams, 0);
    expectSimulationWithinBounds(r); // finite ones still hold
}

TEST(CalculusBounds, ProvisionedAllocationMeetsTheSla)
{
    // Inverse mode: ask for an allocation meeting a 100 ms unscaled
    // SLA at a moderate load, then run the simulation under the
    // returned allocation and demand zero violations.
    core::ExperimentConfig cfg =
        miniature(config::SchedulerKind::VirtualClock, 0.3);

    calculus::ProvisionRequest request;
    const double sla_unscaled_ms = 100.0;
    request.slaUs = sla_unscaled_ms * 1000.0 * cfg.timeScale;
    request.oracle = cfg.calculus;

    const calculus::ProvisionResult alloc = calculus::provision(
        cfg.router, cfg.traffic, cfg.network, cfg.seed,
        cfg.timeScale, request);
    ASSERT_TRUE(alloc.feasible) << alloc.describe();
    EXPECT_LE(alloc.worstBoundUs, request.slaUs);
    EXPECT_GT(alloc.rtStreams, 0);

    cfg.router.numVcs = alloc.numVcs;
    cfg.traffic.reservedRateFactor = alloc.reservedRateFactor;
    const core::ExperimentResult r = core::runExperiment(cfg);

    ASSERT_NE(r.bounds, nullptr);
    ASSERT_TRUE(r.bounds->allBounded());
    EXPECT_LE(r.bounds->maxBoundUs, request.slaUs);
    EXPECT_GT(expectSimulationWithinBounds(r), 0);

    // Zero violations: every observed worst delay is inside the SLA.
    ASSERT_TRUE(r.observations != nullptr
                && r.observations->telemetry.has_value());
    for (const obs::StreamSeries& series :
         r.observations->telemetry->streams) {
        if (series.messages == 0)
            continue;
        EXPECT_LE(series.worstMessageDelayUs, request.slaUs)
            << "stream " << series.stream.value();
    }
}

TEST(CalculusBounds, ReservedRateTightensTheBound)
{
    // The provisioning lever must actually move the analytics. The
    // stamp-rate branch wins at the router's Virtual Clock output
    // when lanes are thinly shared (32 VCs at load 0.3) and the
    // reservation lifts the lane rate above its members' aggregate
    // rate while the summed lane rates still fit the link - factor 4
    // sits inside that window (6 is already past the feasibility
    // cliff and falls back to the blind residual).
    core::ExperimentConfig base =
        miniature(config::SchedulerKind::VirtualClock, 0.3);
    base.router.numVcs = 32;
    core::ExperimentConfig reserved = base;
    reserved.traffic.reservedRateFactor = 4.0;

    const core::ExperimentResult r0 = core::runExperiment(base);
    const core::ExperimentResult r4 = core::runExperiment(reserved);
    ASSERT_NE(r0.bounds, nullptr);
    ASSERT_NE(r4.bounds, nullptr);
    ASSERT_TRUE(r0.bounds->allBounded());
    ASSERT_TRUE(r4.bounds->allBounded());
    EXPECT_LT(r4.bounds->maxBoundUs, r0.bounds->maxBoundUs);
    EXPECT_GT(expectSimulationWithinBounds(r4), 0);
}

} // namespace
