/**
 * @file
 * Unit tests for the PCS subsystem: configuration, connection
 * establishment/accounting, circuit data transport and the
 * experiment harness.
 */

#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "network/metrics.hh"
#include "pcs/connection_table.hh"
#include "pcs/pcs_experiment.hh"
#include "pcs/pcs_network.hh"
#include "traffic/frame_source.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::pcs;

// --- PcsConfig ---------------------------------------------------------------

TEST(PcsConfig, PaperDefaults)
{
    PcsConfig cfg;
    EXPECT_EQ(cfg.numPorts, 8);
    EXPECT_EQ(cfg.numVcs, 24);
    EXPECT_EQ(cfg.linkBandwidthMbps, 100);
    EXPECT_EQ(cfg.cycleTime(), nanoseconds(320));
    cfg.validate();
    EXPECT_NE(cfg.describe().find("PCS"), std::string::npos);
}

TEST(PcsConfigDeath, RejectsBadShape)
{
    PcsConfig cfg;
    cfg.numPorts = 1;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "numPorts");
}

TEST(PcsConfigDeath, RejectsMoreVcsThanAnArbiterHolds)
{
    // Each link multiplexer is one port of a router::MultiPortArbiter,
    // with one eligibility-mask bit per VC.
    PcsConfig cfg;
    cfg.numVcs = config::kMaxVcs + 1;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "numVcs 65 out of range \\[1,64\\]");
}

// --- ConnectionTable ------------------------------------------------------------

TEST(ConnectionTable, EstablishReservesBothEnds)
{
    PcsConfig cfg;
    ConnectionTable table(cfg);
    Rng rng(1);
    const auto connection =
        table.establish(NodeId(2), microseconds(8), rng);
    ASSERT_TRUE(connection.has_value());
    EXPECT_EQ(connection->src, NodeId(2));
    EXPECT_NE(connection->dst, NodeId(2));
    EXPECT_GE(connection->srcVc, 0);
    EXPECT_LT(connection->srcVc, 24);
    EXPECT_EQ(table.established(), 1u);
    EXPECT_EQ(table.sourceOccupancy(2), 1);
    EXPECT_EQ(table.destinationOccupancy(connection->dst.value()), 1);
    EXPECT_NE(table.find(connection->stream), nullptr);
}

TEST(ConnectionTable, AttemptAccountingIsConsistent)
{
    PcsConfig cfg;
    ConnectionTable table(cfg);
    Rng rng(7);
    for (int i = 0; i < 150; ++i)
        table.establish(NodeId(i % 8), microseconds(8), rng);
    EXPECT_EQ(table.attempts(),
              table.established() + table.dropped());
    EXPECT_EQ(table.established(), 150u)
        << "150 of 192 circuit slots must be reachable with retries";
}

TEST(ConnectionTable, DropsGrowWithOccupancy)
{
    PcsConfig cfg;
    ConnectionTable table(cfg);
    Rng rng(7);
    for (int i = 0; i < 96; ++i)
        table.establish(NodeId(i % 8), microseconds(8), rng);
    const auto drops_at_half = table.dropped();
    for (int i = 0; i < 84; ++i)
        table.establish(NodeId(i % 8), microseconds(8), rng);
    const auto drops_later = table.dropped() - drops_at_half;
    EXPECT_GT(drops_later, drops_at_half)
        << "blind destination-VC probes must drop more as VCs fill";
}

TEST(ConnectionTable, SourceSideFullMeansNoMoreConnections)
{
    PcsConfig cfg;
    cfg.maxAttemptsPerConnection = 200;
    ConnectionTable table(cfg);
    Rng rng(3);
    // Node 0 sources connections until its 24 source VCs are gone.
    int established = 0;
    for (int i = 0; i < 30; ++i) {
        if (table.establish(NodeId(0), microseconds(8), rng))
            ++established;
    }
    EXPECT_EQ(established, 24);
    EXPECT_EQ(table.sourceOccupancy(0), 24);
}

TEST(ConnectionTable, NoDuplicateVcAssignments)
{
    PcsConfig cfg;
    ConnectionTable table(cfg);
    Rng rng(11);
    for (int i = 0; i < 180; ++i)
        table.establish(NodeId(i % 8), microseconds(8), rng);
    // Each (node, vc) appears at most once per side.
    std::set<std::pair<int, int>> src_slots;
    std::set<std::pair<int, int>> dst_slots;
    for (const Connection& c : table.connections()) {
        EXPECT_TRUE(
            src_slots.insert({c.src.value(), c.srcVc}).second);
        EXPECT_TRUE(
            dst_slots.insert({c.dst.value(), c.dstVc}).second);
    }
}

// --- PcsNetwork data path ---------------------------------------------------------

class PcsNetworkTest : public testing::Test
{
  protected:
    PcsNetworkTest() : net(simulator, cfg, metrics) {}

    Connection
    connect(int src)
    {
        Rng rng(13);
        const auto connection = net.table().establish(
            NodeId(src), microseconds(8), rng);
        EXPECT_TRUE(connection.has_value());
        net.registerConnection(*connection);
        return *connection;
    }

    void
    inject(const Connection& connection, int flits, bool eof = true,
           MessageSeq seq = 0)
    {
        traffic::MessageDesc desc;
        desc.seq = seq;
        desc.stream = connection.stream;
        desc.dest = connection.dst;
        desc.cls = router::TrafficClass::Vbr;
        desc.vcLane = connection.srcVc;
        desc.vtick = connection.vtick;
        desc.numFlits = flits;
        desc.endOfFrame = eof;
        net.injectMessage(desc);
    }

    Simulator simulator;
    PcsConfig cfg;
    network::MetricsHub metrics;
    PcsNetwork net;
};

TEST_F(PcsNetworkTest, CircuitDeliversMessages)
{
    const Connection connection = connect(0);
    inject(connection, 20);
    simulator.runToCompletion();
    EXPECT_EQ(metrics.flitsDelivered(), 20u);
    EXPECT_EQ(metrics.frames().framesDelivered(), 1u);
    EXPECT_EQ(net.flitsDelivered(), 20u);
}

TEST_F(PcsNetworkTest, MessageSeqMustFitTheFlitField)
{
    const Connection connection = connect(0);
    const MessageSeq largest = std::numeric_limits<std::int32_t>::max();
    inject(connection, 4, true, largest);
    simulator.runToCompletion();
    EXPECT_EQ(net.flitsDelivered(), 4u);

    EXPECT_EXIT(inject(connection, 4, true, largest + 1),
                testing::ExitedWithCode(1),
                "message sequence number 2147483648 does not fit");
}

TEST_F(PcsNetworkTest, BackToBackMessagesShareTheCircuit)
{
    const Connection connection = connect(0);
    inject(connection, 20, false);
    inject(connection, 20, true);
    simulator.runToCompletion();
    EXPECT_EQ(metrics.flitsDelivered(), 40u);
    EXPECT_EQ(metrics.frames().framesDelivered(), 1u);
}

TEST_F(PcsNetworkTest, ConcurrentCircuitsDoNotInterfereAtLowLoad)
{
    std::vector<Connection> circuits;
    for (int src = 0; src < 8; ++src)
        circuits.push_back(connect(src));
    for (const Connection& connection : circuits)
        inject(connection, 20);
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(), 8u);
    EXPECT_EQ(metrics.flitsDelivered(), 160u);
}

// --- Experiment harness -------------------------------------------------------------

TEST(PcsExperiment, LowLoadIsJitterFree)
{
    PcsExperimentConfig cfg;
    cfg.traffic.inputLoad = 0.4;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 3;
    cfg.timeScale = 0.05;

    const PcsExperimentResult result = runPcsExperiment(cfg);
    EXPECT_FALSE(result.truncated);
    EXPECT_NEAR(result.meanIntervalNormMs, 33.0, 0.5);
    EXPECT_LT(result.stddevIntervalNormMs, 1.0);
    EXPECT_EQ(result.attempts,
              result.established + result.dropped);
    // Target: 0.4 * 8 * ~24.75 streams.
    EXPECT_NEAR(static_cast<double>(result.connectionsRequested), 79.0,
                2.0);
}

TEST(PcsExperiment, HighLoadDropsManyButEstablishesTarget)
{
    PcsExperimentConfig cfg;
    cfg.traffic.inputLoad = 0.9;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.05;

    const PcsExperimentResult result = runPcsExperiment(cfg);
    EXPECT_GT(result.dropped, result.established / 2)
        << "paper reports massive drop counts at high load";
    EXPECT_NEAR(static_cast<double>(result.established),
                static_cast<double>(result.connectionsRequested), 8.0);
}

TEST(PcsExperiment, DeterministicForSeed)
{
    PcsExperimentConfig cfg;
    cfg.traffic.inputLoad = 0.6;
    cfg.traffic.warmupFrames = 1;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.05;
    cfg.seed = 99;

    const auto a = runPcsExperiment(cfg);
    const auto b = runPcsExperiment(cfg);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.meanIntervalMs, b.meanIntervalMs);
}

/**
 * Pins the PCS experiment's outputs for every link discipline on a
 * small contended point (load 0.8, scale 0.02, 1+2 frames). The
 * interval statistics differ per discipline here, so any change to
 * a link multiplexer's winners moves them.
 */
TEST(PcsExperiment, GoldenOutputsPerScheduler)
{
    struct Golden
    {
        config::SchedulerKind kind;
        double meanIntervalMs;
        double stddevIntervalMs;
    };
    const Golden goldens[] = {
        {config::SchedulerKind::Fifo, 0.65374049168999993,
         0.016451252759264987},
        {config::SchedulerKind::RoundRobin, 0.65307917894949519,
         0.019163557368203507},
        {config::SchedulerKind::VirtualClock, 0.65371041509395977,
         0.02970431571975421},
        {config::SchedulerKind::WeightedRoundRobin, 0.65305527667340124,
         0.018817928539789603},
    };
    for (const Golden& golden : goldens) {
        PcsExperimentConfig cfg;
        cfg.pcs.linkScheduler = golden.kind;
        cfg.traffic.inputLoad = 0.8;
        cfg.traffic.warmupFrames = 1;
        cfg.traffic.measuredFrames = 2;
        cfg.timeScale = 0.02;
        cfg.seed = 5;

        const PcsExperimentResult r = runPcsExperiment(cfg);
        const char* name = config::toString(golden.kind);
        EXPECT_DOUBLE_EQ(r.meanIntervalMs, golden.meanIntervalMs)
            << name;
        EXPECT_DOUBLE_EQ(r.stddevIntervalMs, golden.stddevIntervalMs)
            << name;
        EXPECT_EQ(r.established, 158u) << name;
        EXPECT_EQ(r.dropped, 149u) << name;
        EXPECT_EQ(r.framesDelivered, 474u) << name;
        // One fewer than when warm-up ended by a scheduled event.
        EXPECT_EQ(r.eventsFired, 169790u) << name;
        EXPECT_FALSE(r.truncated) << name;
    }
}

} // namespace
