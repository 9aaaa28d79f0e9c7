/**
 * @file
 * Observability configuration and per-run observation bundle.
 *
 * ObsConfig rides inside core::ExperimentConfig and selects which
 * observers runExperiment() attaches: per-stream telemetry
 * (telemetry.hh), the crash-time flight recorder
 * (flight_recorder.hh) and/or the full flit tracer that feeds the
 * Chrome-trace exporter (chrome_trace.hh). Everything defaults off;
 * a disabled observer leaves the simulation's hot paths at their
 * null-pointer-check no-ops, and none of the observers schedules
 * events or draws random numbers, so enabling them changes no
 * deterministic output (deterministicHash is bit-identical either
 * way - tests/test_determinism.cc enforces this).
 *
 * RunObservations is what a run hands back: the telemetry report and
 * the trace ring, carried by shared_ptr in ExperimentResult so the
 * campaign engine can copy results cheaply.
 */

#ifndef MEDIAWORM_OBS_OBSERVER_HH
#define MEDIAWORM_OBS_OBSERVER_HH

#include <cstddef>
#include <vector>

#include "obs/telemetry.hh"
#include "sim/pdes.hh"
#include "sim/tracer.hh"

namespace mediaworm::obs {

/** Flight-recorder ring capacity (events). */
inline constexpr std::size_t kFlightRecorderCapacity = 512;

/** Full-trace ring capacity (events). */
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

/** Which observers a run attaches; everything defaults off. */
struct ObsConfig
{
    /** Per-stream sliding-window telemetry. */
    TelemetryConfig telemetry;

    /** Arm the crash-time flight recorder for the run. */
    bool flightRecorder = false;

    /** Record the full flit trace (for Chrome-trace export). */
    bool trace = false;

    /** Restrict the trace to one stream; invalid = all streams. */
    sim::StreamId traceStream;

    /** True if any observer is enabled. */
    bool
    any() const
    {
        return telemetry.enabled || flightRecorder || trace;
    }
};

/** What an observed run hands back. */
struct RunObservations
{
    /** @param traceCapacity Ring size for the shared event trace. */
    explicit RunObservations(std::size_t traceCapacity)
        : trace(traceCapacity)
    {
    }

    bool hasTelemetry = false;
    TelemetryReport telemetry;

    /** True when the trace ring was attached (trace or flight
     *  recorder requested); the ring holds the recent events. */
    bool hasTrace = false;
    sim::Tracer trace;

    /** True when the run executed on >1 shard; shards then holds one
     *  entry per shard (queue occupancy high-water marks, mailbox
     *  traffic, and time blocked on the lookahead barriers). */
    bool hasShards = false;
    std::vector<sim::ShardRunStats> shards;
};

} // namespace mediaworm::obs

#endif // MEDIAWORM_OBS_OBSERVER_HH
