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
 * deterministic output (modelDigest and kernelDigest are
 * bit-identical either way - tests/test_determinism.cc enforces
 * this).
 *
 * RunObservations is what a run hands back: the telemetry report and
 * the trace ring, carried by shared_ptr in ExperimentResult so the
 * campaign engine can copy results cheaply.
 */

#ifndef MEDIAWORM_OBS_OBSERVER_HH
#define MEDIAWORM_OBS_OBSERVER_HH

#include <cstddef>
#include <optional>
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
    /** Per-stream sliding-window telemetry; runExperiment() derives
     *  the collector's window, steady-state start and flit size
     *  from the run. */
    bool telemetry = false;

    /** Arm the crash-time flight recorder for the run. */
    bool flightRecorder = false;

    /** Record the full flit trace (for Chrome-trace export). */
    bool trace = false;

    /** True if any observer is enabled. */
    bool
    any() const
    {
        return telemetry || flightRecorder || trace;
    }
};

/** What an observed run hands back. */
struct RunObservations
{
    /** Present when telemetry was requested. */
    std::optional<TelemetryReport> telemetry;

    /** Present when the trace or the flight recorder was requested;
     *  the ring holds the recent events. */
    std::optional<sim::Tracer> trace;

    /** One entry per shard when the run executed on >1 shard (queue
     *  occupancy high-water marks, mailbox traffic, and time blocked
     *  on the lookahead barriers); empty otherwise. */
    std::vector<sim::ShardRunStats> shards;
};

} // namespace mediaworm::obs

#endif // MEDIAWORM_OBS_OBSERVER_HH
