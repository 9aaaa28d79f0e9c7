/**
 * @file
 * Deadlock saturation soak (ctest label "deadlock").
 *
 * The CDG acyclicity proofs in test_topology.cc are static; this
 * suite drives the real simulator into the regimes where a wormhole
 * deadlock would actually bite - saturation load, minimal VC counts
 * (one lane per VC class), shallow buffers - and demands that every
 * run drains. A deadlock rarely shows as `truncated` (the time cap
 * hit with events still queued): once the sources stop, a cycle of
 * flits holding VCs and waiting on each other schedules nothing, so
 * the event queue drains with the flits still stuck. runExperiment
 * then panics, since a drained run must have delivered every flit it
 * injected; that panic is what catches a deadlock here.
 *
 * Separate executable so the fast CI jobs can exclude the label; the
 * Release job runs it with -L deadlock.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::core;

/** Saturation miniature on a multi-hop topology. */
ExperimentConfig
soak(config::TopologyKind topology, config::RoutingKind routing,
     int vcs)
{
    ExperimentConfig cfg;
    cfg.router.numVcs = vcs;
    cfg.router.flitBufferDepth = 4; // shallow: maximal credit waits
    cfg.network.topology = topology;
    cfg.network.routing = routing;
    cfg.network.meshWidth = 4;
    cfg.network.meshHeight = 4;
    cfg.network.endpointsPerSwitch = 1;
    cfg.network.closM = 4;
    cfg.network.closN = 4;
    cfg.network.closR = 8;
    cfg.traffic.inputLoad = 0.96;
    cfg.traffic.realTimeFraction = 0.8;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.05;
    cfg.seed = 42;
    return cfg;
}

void
expectDrains(const ExperimentConfig& cfg)
{
    const ExperimentResult r = runExperiment(cfg);
    EXPECT_FALSE(r.truncated)
        << "flits stuck at the time cap - deadlock signature";
    EXPECT_GT(r.flitsDelivered, 0u);
    EXPECT_GT(r.framesDelivered, 0u);
}

TEST(DeadlockSoak, TorusDimensionOrderAtSaturation)
{
    // Two dateline classes, one lane each: the tightest legal VC
    // budget for torus dimension-order routing.
    expectDrains(soak(config::TopologyKind::Torus,
                      config::RoutingKind::DimensionOrder, 2));
}

TEST(DeadlockSoak, TorusAdaptiveAtSaturation)
{
    // Three classes (two datelines + adaptive), one lane each.
    expectDrains(soak(config::TopologyKind::Torus,
                      config::RoutingKind::Adaptive, 3));
}

TEST(DeadlockSoak, TorusAdaptiveWideAtSaturation)
{
    // The acceptance shape: 8-ary 2-torus at saturation with the
    // usual VC budget.
    ExperimentConfig cfg = soak(config::TopologyKind::Torus,
                                config::RoutingKind::Adaptive, 16);
    cfg.network.meshWidth = 8;
    cfg.network.meshHeight = 8;
    expectDrains(cfg);
}

TEST(DeadlockSoak, MeshAdaptiveAtSaturation)
{
    expectDrains(soak(config::TopologyKind::Mesh,
                      config::RoutingKind::Adaptive, 2));
}

TEST(DeadlockSoak, MeshUpDownTreeRootOverload)
{
    // Tree routing concentrates the whole grid's traffic at the
    // root - the hardest single-class stress. The offered load is
    // moderate so the post-injection backlog still drains inside
    // the experiment's safety cap (the root link is saturated far
    // below this offered load anyway).
    // 2 VCs: one real-time + one best-effort lane, the smallest
    // budget the mixed workload admits.
    ExperimentConfig cfg = soak(config::TopologyKind::Mesh,
                                config::RoutingKind::UpDown, 2);
    cfg.traffic.inputLoad = 0.6;
    expectDrains(cfg);
}

TEST(DeadlockSoak, ClosUpDownAtSaturation)
{
    expectDrains(soak(config::TopologyKind::Clos,
                      config::RoutingKind::UpDown, 2));
}

TEST(DeadlockSoak, ClosAdaptiveAtSaturation)
{
    expectDrains(soak(config::TopologyKind::Clos,
                      config::RoutingKind::Adaptive, 2));
}

} // namespace
