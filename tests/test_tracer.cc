/**
 * @file
 * Tests for the flit tracer: ring semantics and the record sequence
 * a message leaves across a network.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "network/network.hh"
#include "sim/tracer.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::network;

TraceRecord
entry(Tick when)
{
    TraceRecord record;
    record.when = when;
    record.stream = StreamId(1);
    return record;
}

TEST(Tracer, RetainsInOrder)
{
    Tracer tracer(8);
    for (int i = 0; i < 5; ++i)
        tracer.record(entry(i));
    EXPECT_EQ(tracer.size(), 5u);
    std::vector<Tick> times;
    tracer.forEach([&](const TraceRecord& r) {
        times.push_back(r.when);
    });
    EXPECT_EQ(times, (std::vector<Tick>{0, 1, 2, 3, 4}));
}

TEST(Tracer, RingEvictsOldest)
{
    Tracer tracer(4);
    for (int i = 0; i < 10; ++i)
        tracer.record(entry(i));
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.totalRecorded(), 10u);
    std::vector<Tick> times;
    tracer.forEach([&](const TraceRecord& r) {
        times.push_back(r.when);
    });
    EXPECT_EQ(times, (std::vector<Tick>{6, 7, 8, 9}));
}

TEST(Tracer, ClearKeepsTotals)
{
    Tracer tracer(4);
    tracer.record(entry(1));
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.totalRecorded(), 1u);
}

TEST(Tracer, ToStringShowsPointNames)
{
    Tracer tracer(4);
    TraceRecord record = entry(nanoseconds(80));
    record.point = TracePoint::RouterArrive;
    tracer.record(record);
    const std::string text = tracer.toString();
    EXPECT_NE(text.find("router-arrive"), std::string::npos);
    EXPECT_NE(text.find("80.000ns"), std::string::npos);
}

TEST(TracerIntegration, MessageLeavesCompleteLifecycle)
{
    Simulator simulator;
    config::RouterConfig cfg;
    config::NetworkConfig net_cfg;
    MetricsHub metrics;
    Rng rng(3);
    Network net(simulator, cfg, net_cfg, metrics, rng);

    Tracer tracer(1024);
    net.attachTracer(tracer);

    traffic::MessageDesc desc;
    desc.stream = StreamId(9);
    desc.dest = NodeId(4);
    desc.cls = router::TrafficClass::Vbr;
    desc.vcLane = 1;
    desc.vtick = microseconds(8);
    desc.numFlits = 3;
    desc.endOfFrame = true;
    net.ni(0).injectMessage(desc);
    simulator.runToCompletion();

    // 1 host-inject + 3 launches + 3 arrivals + 3 departures +
    // 3 ejects; the sink returns no credits to the ejection port.
    EXPECT_EQ(tracer.totalRecorded(), 13u);

    std::vector<TracePoint> header_path;
    tracer.forEach([&](const TraceRecord& record) {
        EXPECT_NE(record.point, TracePoint::CreditReturn);
        EXPECT_EQ(record.stream, StreamId(9));
        if (record.flitIndex <= 0)
            header_path.push_back(record.point);
    });
    EXPECT_EQ(header_path,
              (std::vector<TracePoint>{
                  TracePoint::HostInject, TracePoint::NetworkLaunch,
                  TracePoint::RouterArrive, TracePoint::RouterDepart,
                  TracePoint::Eject}));

    // Timestamps are monotone along the header's path.
    Tick last = -1;
    tracer.forEach([&](const TraceRecord& record) {
        if (record.flitIndex <= 0) {
            EXPECT_GE(record.when, last);
            last = record.when;
        }
    });
}

/**
 * Every credit that crosses a router -> router link leaves exactly
 * one CreditReturn record at the sending router's output port,
 * stamped with the tick the credit fell due there - whether the
 * router took it from the link's credit event (an output VC starved
 * for it) or collected it later. Two 8-flit messages squeeze through
 * 2-flit buffers from switch 0 to switch 1 of a 2x1 mesh, so both
 * paths occur. The stamps were captured when every credit still had
 * its own delivery event. The sink at switch 1 returns none: its
 * ejection port keeps no credits.
 */
TEST(TracerIntegration, OneCreditReturnPerCreditAtItsDueTick)
{
    Simulator simulator;
    config::RouterConfig cfg;
    cfg.flitBufferDepth = 2;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::Mesh;
    net_cfg.meshWidth = 2;
    net_cfg.meshHeight = 1;
    net_cfg.endpointsPerSwitch = 1;
    MetricsHub metrics;
    Rng rng(3);
    Network net(simulator, cfg, net_cfg, metrics, rng);

    Tracer tracer(1024);
    net.attachTracer(tracer);

    for (int lane = 0; lane < 2; ++lane) {
        traffic::MessageDesc desc;
        desc.stream = StreamId(lane);
        desc.dest = NodeId(1);
        desc.cls = router::TrafficClass::Vbr;
        desc.vcLane = lane;
        desc.vtick = microseconds(8);
        desc.numFlits = 8;
        desc.endOfFrame = true;
        net.ni(0).injectMessage(desc);
    }
    simulator.runToCompletion();

    // (tick, vc) of each record: one credit per link cycle (80 ns),
    // the lanes alternating in pairs as the 2-flit buffers allow.
    std::vector<std::pair<Tick, int>> credits;
    tracer.forEach([&](const TraceRecord& record) {
        if (record.point != TracePoint::CreditReturn)
            return;
        EXPECT_EQ(record.location, 0);
        credits.emplace_back(record.when, record.vc);
    });
    std::vector<std::pair<Tick, int>> expected;
    for (int i = 0; i < 16; ++i)
        expected.emplace_back(nanoseconds(1040 + 80 * i), (i / 2) % 2);
    // One per flit that crossed the link: every credit came back.
    EXPECT_EQ(credits, expected);
    EXPECT_EQ(metrics.flitsDelivered(), 16u);
    EXPECT_FALSE(simulator.lazyTickPending());
}

} // namespace
