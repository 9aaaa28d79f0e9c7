/**
 * @file
 * Tests for the flit tracer: ring semantics and the record sequence
 * a message leaves across a network.
 */

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
    // 3 ejects.
    EXPECT_EQ(tracer.totalRecorded(), 13u);

    std::vector<TracePoint> header_path;
    tracer.forEach([&](const TraceRecord& record) {
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

} // namespace
