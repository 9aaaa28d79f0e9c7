/**
 * @file
 * Unit tests for the observability subsystem (src/obs/): exact-value
 * checks of the sliding-window telemetry collector (rates, interval
 * jitter, window-wrap edges, worst-stream selection), a golden test
 * for the Chrome-trace exporter, flight-recorder dump rendering, and
 * structural checks of the v2 campaign-artifact telemetry section.
 */

#include <gtest/gtest.h>

#include "campaign/artifact.hh"
#include "core/mediaworm.hh"
#include "obs/chrome_trace.hh"
#include "obs/flight_recorder.hh"
#include "obs/telemetry.hh"

namespace {

using namespace mediaworm;
using obs::StreamTelemetry;
using obs::TelemetryConfig;
using obs::TelemetryReport;
using sim::kMillisecond;
using sim::StreamId;

TelemetryConfig
windowConfig(sim::Tick window)
{
    TelemetryConfig cfg;
    cfg.window = window;
    cfg.measureFrom = 0;
    cfg.flitSizeBits = 32;
    return cfg;
}

// --- StreamTelemetry ---------------------------------------------------

TEST(Telemetry, ExactWindowValues)
{
    StreamTelemetry telemetry(windowConfig(10 * kMillisecond));
    const StreamId s(1);
    for (sim::Tick t : {1, 2, 3, 4, 9})
        telemetry.recordFlit(s, t * kMillisecond);
    for (sim::Tick t : {2, 5, 8})
        telemetry.recordFrameDelivery(s, t * kMillisecond);

    const TelemetryReport report = telemetry.finish(12 * kMillisecond);
    ASSERT_EQ(report.streams.size(), 1u);
    const obs::StreamSeries* series = report.find(s);
    ASSERT_NE(series, nullptr);

    // One closed window [0, 10 ms); nothing was active in [10, 12).
    ASSERT_EQ(series->samples.size(), 1u);
    const obs::TelemetrySample& w = series->samples[0];
    EXPECT_EQ(w.windowStart, 0);
    EXPECT_EQ(w.windowEnd, 10 * kMillisecond);
    EXPECT_EQ(w.frames, 3u);
    EXPECT_EQ(w.flits, 5u);
    ASSERT_EQ(w.intervalCount, 2u);
    // Deliveries 2, 5, 8 ms: intervals {3, 3} ms exactly.
    EXPECT_DOUBLE_EQ(w.meanIntervalMs, 3.0);
    EXPECT_DOUBLE_EQ(w.stddevIntervalMs, 0.0);
    // 5 flits x 32 bits over 10 ms = 16 kbit/s = 0.016 Mbps.
    EXPECT_DOUBLE_EQ(w.mbps, 0.016);

    EXPECT_EQ(series->frames, 3u);
    EXPECT_EQ(series->intervalCount, 2u);
    EXPECT_DOUBLE_EQ(series->meanIntervalMs, 3.0);
    EXPECT_DOUBLE_EQ(series->stddevIntervalMs, 0.0);

    // All streams have zero jitter, so no stream qualifies as worst.
    EXPECT_FALSE(report.worstStream.valid());
    EXPECT_DOUBLE_EQ(report.worstStddevMs, 0.0);

    EXPECT_EQ(report.find(StreamId(99)), nullptr);
}

TEST(Telemetry, WindowWrapEdges)
{
    StreamTelemetry telemetry(windowConfig(10 * kMillisecond));
    const StreamId s(2);
    // 9 ms lands in window 0; 10 ms is exactly the boundary and must
    // land in window 1; 35 ms skips an idle window (no sample for
    // [20, 30)) and lands in window 3.
    telemetry.recordFrameDelivery(s, 9 * kMillisecond);
    telemetry.recordFrameDelivery(s, 10 * kMillisecond);
    telemetry.recordFrameDelivery(s, 35 * kMillisecond);

    const TelemetryReport report = telemetry.finish(40 * kMillisecond);
    const obs::StreamSeries* series = report.find(s);
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->samples.size(), 3u);

    EXPECT_EQ(series->samples[0].windowStart, 0);
    EXPECT_EQ(series->samples[0].frames, 1u);
    EXPECT_EQ(series->samples[0].intervalCount, 0u);

    // The 9 -> 10 ms interval is accounted to the window the second
    // delivery lands in.
    EXPECT_EQ(series->samples[1].windowStart, 10 * kMillisecond);
    EXPECT_EQ(series->samples[1].frames, 1u);
    ASSERT_EQ(series->samples[1].intervalCount, 1u);
    EXPECT_DOUBLE_EQ(series->samples[1].meanIntervalMs, 1.0);

    EXPECT_EQ(series->samples[2].windowStart, 30 * kMillisecond);
    ASSERT_EQ(series->samples[2].intervalCount, 1u);
    EXPECT_DOUBLE_EQ(series->samples[2].meanIntervalMs, 25.0);
}

TEST(Telemetry, WorstStreamSelection)
{
    StreamTelemetry telemetry(windowConfig(100 * kMillisecond));
    // Stream 1: intervals {3, 3} ms, sigma = 0.
    for (sim::Tick t : {1, 4, 7})
        telemetry.recordFrameDelivery(StreamId(1), t * kMillisecond);
    // Stream 2: intervals {2, 4} ms, population sigma = 1 ms.
    for (sim::Tick t : {1, 3, 7})
        telemetry.recordFrameDelivery(StreamId(2), t * kMillisecond);
    // Stream 3: one interval only - excluded from worst selection.
    for (sim::Tick t : {1, 50})
        telemetry.recordFrameDelivery(StreamId(3), t * kMillisecond);
    // Stream 4: same sigma as stream 2; the tie keeps the lower id.
    for (sim::Tick t : {2, 4, 8})
        telemetry.recordFrameDelivery(StreamId(4), t * kMillisecond);

    const TelemetryReport report = telemetry.finish(60 * kMillisecond);
    ASSERT_EQ(report.streams.size(), 4u);
    // Sorted by stream id.
    EXPECT_EQ(report.streams[0].stream, StreamId(1));
    EXPECT_EQ(report.streams[3].stream, StreamId(4));

    EXPECT_EQ(report.worstStream, StreamId(2));
    EXPECT_DOUBLE_EQ(report.worstStddevMs, 1.0);
    EXPECT_DOUBLE_EQ(report.find(StreamId(4))->stddevIntervalMs, 1.0);
}

TEST(Telemetry, MeasureFromExcludesWarmupIntervals)
{
    TelemetryConfig cfg = windowConfig(10 * kMillisecond);
    cfg.measureFrom = 10 * kMillisecond;
    StreamTelemetry telemetry(cfg);
    const StreamId s(5);
    for (sim::Tick t : {2, 5, 8, 12})
        telemetry.recordFrameDelivery(s, t * kMillisecond);

    const TelemetryReport report = telemetry.finish(20 * kMillisecond);
    const obs::StreamSeries* series = report.find(s);
    ASSERT_NE(series, nullptr);

    // Only the 8 -> 12 ms interval is delivered at/after measureFrom.
    EXPECT_EQ(series->frames, 4u);
    ASSERT_EQ(series->intervalCount, 1u);
    EXPECT_DOUBLE_EQ(series->meanIntervalMs, 4.0);

    // The window samples keep every interval (warmup included).
    std::uint64_t window_intervals = 0;
    for (const obs::TelemetrySample& sample : series->samples)
        window_intervals += sample.intervalCount;
    EXPECT_EQ(window_intervals, 3u);
}

// --- Chrome trace exporter ---------------------------------------------

TEST(ChromeTrace, GoldenSmallTrace)
{
    sim::Tracer tracer(16);
    tracer.record({1 * kMillisecond, sim::TracePoint::HostInject,
                   StreamId(1), 0, 0, 0, -1, 0});
    tracer.record({2 * kMillisecond, sim::TracePoint::RouterArrive,
                   StreamId(1), 0, 0, 0, 1, 2});
    tracer.record({3 * kMillisecond, sim::TracePoint::RouterDepart,
                   StreamId(1), 0, 0, 0, 3, 2});
    tracer.record({4 * kMillisecond, sim::TracePoint::Eject,
                   StreamId(1), 0, 0, 1, -1, 2});
    tracer.record({5 * kMillisecond, sim::TracePoint::CreditReturn,
                   StreamId(), 0, 0, 0, 1, 2});

    const char* golden = R"({
  "displayTimeUnit": "ms",
  "otherData": {
    "schema": "mediaworm-chrome-trace-v1"
  },
  "traceEvents": [
    {
      "name": "process_name",
      "ph": "M",
      "pid": 1,
      "args": {
        "name": "streams"
      }
    },
    {
      "name": "process_name",
      "ph": "M",
      "pid": 2,
      "args": {
        "name": "routers"
      }
    },
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 1,
      "tid": 1,
      "args": {
        "name": "stream1"
      }
    },
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 2,
      "tid": 0,
      "args": {
        "name": "router0"
      }
    },
    {
      "name": "router0.port1.occupancy",
      "cat": "occupancy",
      "ph": "C",
      "ts": 2000,
      "pid": 2,
      "tid": 0,
      "args": {
        "flits": 1
      }
    },
    {
      "name": "s1 m0 f0",
      "cat": "router",
      "ph": "X",
      "ts": 2000,
      "pid": 2,
      "tid": 0,
      "dur": 1000,
      "args": {
        "in_port": 1,
        "in_vc": 2,
        "out_port": 3,
        "out_vc": 2
      }
    },
    {
      "name": "router0.port1.occupancy",
      "cat": "occupancy",
      "ph": "C",
      "ts": 3000,
      "pid": 2,
      "tid": 0,
      "args": {
        "flits": 0
      }
    },
    {
      "name": "s1 m0 f0",
      "cat": "flit",
      "ph": "X",
      "ts": 1000,
      "pid": 1,
      "tid": 1,
      "dur": 3000
    },
    {
      "name": "credit",
      "cat": "credit",
      "ph": "i",
      "ts": 5000,
      "pid": 2,
      "tid": 0,
      "s": "t"
    }
  ]
})";
    EXPECT_EQ(obs::toChromeTraceJson(tracer), golden);
}

// --- Flight recorder ---------------------------------------------------

TEST(FlightRecorder, DumpRendersTailWithHeader)
{
    sim::Tracer ring(4);
    obs::FlightRecorder recorder(ring);
    for (int i = 0; i < 10; ++i) {
        ring.record({i * kMillisecond, sim::TracePoint::HostInject,
                     StreamId(i), 0, 0, 0, -1, 0});
    }

    const std::string dump = recorder.dump();
    EXPECT_NE(dump.find("flight recorder: last 4 of 10 events"),
              std::string::npos);
    // Oldest retained record is stream 6; stream 5 was evicted.
    EXPECT_NE(dump.find("stream=6"), std::string::npos);
    EXPECT_EQ(dump.find("stream=5"), std::string::npos);
}

TEST(FlightRecorder, ArmInstallsAndDisarmReleasesCrashHook)
{
    void* context = nullptr;
    {
        sim::Tracer ring(8);
        obs::FlightRecorder recorder(ring);
        EXPECT_EQ(sim::crashHook(&context), nullptr);
        recorder.arm();
        EXPECT_NE(sim::crashHook(&context), nullptr);
        EXPECT_EQ(context, &recorder);
    }
    EXPECT_EQ(sim::crashHook(&context), nullptr);
}

// --- Campaign artifact v2 ----------------------------------------------

TEST(ArtifactV2, TelemetrySectionSerialisedWhenEnabled)
{
    core::ExperimentConfig cfg;
    cfg.traffic.warmupFrames = 0;
    cfg.traffic.measuredFrames = 2;
    cfg.traffic.inputLoad = 0.4;
    cfg.timeScale = 0.02;
    cfg.obs.telemetry = true;

    campaign::CampaignConfig ccfg;
    ccfg.replications = 1;
    campaign::Campaign camp(ccfg);
    camp.addPoint("p0", cfg);
    camp.run();

    campaign::ArtifactOptions options;
    options.includeTiming = false;
    const std::string text = campaign::toJson(camp, options);

    EXPECT_NE(text.find("\"schema\": \"mediaworm-campaign-v3\""),
              std::string::npos);
    // The telemetry member and its key vocabulary.
    for (const char* key :
         {"\"telemetry\"", "\"window_ms\"", "\"time_scale\"",
          "\"worst_stream\"", "\"worst_sigma_d_norm_ms\"",
          "\"streams\"", "\"d_norm_ms\"", "\"sigma_d_norm_ms\"",
          "\"series\"", "\"t_norm_ms\"", "\"mbps\""}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }

    // v1 compatibility: disabling telemetry removes the member and
    // nothing else changes structurally.
    core::ExperimentConfig off = cfg;
    off.obs.telemetry = false;
    campaign::Campaign camp_off(ccfg);
    camp_off.addPoint("p0", off);
    camp_off.run();
    const std::string text_off = campaign::toJson(camp_off, options);
    EXPECT_EQ(text_off.find("\"telemetry\""), std::string::npos);
    EXPECT_NE(text_off.find("\"counts\""), std::string::npos);
}

TEST(ArtifactV2, TelemetryIdenticalAcrossJobsCounts)
{
    auto build = [](int jobs) {
        core::ExperimentConfig cfg;
        cfg.traffic.warmupFrames = 0;
        cfg.traffic.measuredFrames = 2;
        cfg.traffic.inputLoad = 0.4;
        cfg.timeScale = 0.02;
        cfg.obs.telemetry = true;
        campaign::CampaignConfig ccfg;
        ccfg.jobs = jobs;
        ccfg.replications = 2;
        campaign::Campaign camp(ccfg);
        camp.addPoint("p0", cfg);
        camp.run();
        campaign::ArtifactOptions options;
        options.includeTiming = false;
        return campaign::toJson(camp, options);
    };
    EXPECT_EQ(build(1), build(4));
}

} // namespace
