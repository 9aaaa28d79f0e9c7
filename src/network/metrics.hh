/**
 * @file
 * Network-wide measurement hub (the paper's output parameters,
 * Section 4.1): mean frame delivery interval d and its standard
 * deviation sigma_d for CBR/VBR streams, and average latency for
 * best-effort traffic.
 *
 * Measurements accumulate in one MetricsLane per sink node and the
 * hub's accessors merge the lanes in ascending node order on demand.
 * The fixed merge order makes every aggregate - including the
 * floating-point means and variances - a pure function of what each
 * node observed, independent of how record calls from different
 * nodes interleaved. That is what lets conservative-parallel shards
 * (sim/pdes.hh) write their own nodes' lanes concurrently and still
 * reproduce the single-threaded results bit for bit.
 *
 * Measurement gating is a time threshold (enable()): a record counts
 * when it happens - or, for latencies, when its message was injected
 * - at or after the threshold. The threshold is set before the run
 * and only read during it, so it needs no event and no
 * synchronization.
 *
 * Optionally forwards delivery observations to an attached
 * obs::StreamTelemetry collector per lane (per-stream sliding
 * windows). The forwarding is a null-pointer check when nothing is
 * attached.
 */

#ifndef MEDIAWORM_NETWORK_METRICS_HH
#define MEDIAWORM_NETWORK_METRICS_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "obs/telemetry.hh"
#include "sim/ids.hh"
#include "sim/time.hh"
#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/interval_tracker.hh"

namespace mediaworm::network {

class MetricsHub;

/** One sink node's measurement accumulators (see MetricsHub). */
class MetricsLane
{
  public:
    explicit MetricsLane(const MetricsHub* hub) : hub_(hub) {}

    /** Records delivery of a complete video frame. */
    void recordFrameDelivery(sim::StreamId stream, sim::Tick now);

    /** Records delivery of a real-time message. */
    void recordRtMessage(sim::StreamId stream, sim::Tick inject_time,
                         sim::Tick now);

    /**
     * Records delivery of a best-effort message.
     *
     * @param inject_time Message creation time at the host.
     * @param network_enter_time When the tail flit left the NI.
     * @param now Tail delivery time.
     */
    void recordBeMessage(sim::Tick inject_time,
                         sim::Tick network_enter_time, sim::Tick now);

    /** Counts one delivered flit (any class). */
    void recordFlit(sim::StreamId stream, sim::Tick now);

    /**
     * Attaches a per-stream telemetry collector to this lane; pass
     * nullptr to detach. The lane does not own the collector.
     */
    void
    attachTelemetry(obs::StreamTelemetry* telemetry)
    {
        telemetry_ = telemetry;
    }

  private:
    friend class MetricsHub;

    const MetricsHub* hub_;
    stats::IntervalTracker frames_;
    stats::Accumulator beLatency_;
    stats::Accumulator beNetworkLatency_;
    stats::Histogram beLatencyHistogram_{0.0, 50000.0, 5000};
    stats::Accumulator rtMessageLatency_;
    std::uint64_t beMessages_ = 0;
    std::uint64_t rtMessages_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    obs::StreamTelemetry* telemetry_ = nullptr;
};

/** Shared by every NI sink; aggregates delivery measurements. */
class MetricsHub
{
  public:
    MetricsHub() = default;

    MetricsHub(const MetricsHub&) = delete;
    MetricsHub& operator=(const MetricsHub&) = delete;

    /**
     * Starts measurement at @p now. Frame intervals spanning the
     * boundary and messages injected before it are excluded
     * (steady-state measurement after warmup). May be called before
     * the simulation reaches @p now; gating is by timestamp, not by
     * call time.
     */
    void enable(sim::Tick now) { measureFrom_ = now; }

    /** True once enable() ran. */
    bool enabled() const { return measureFrom_ != kDisabled; }

    /** Measurement threshold; effectively +infinity until enable(). */
    sim::Tick measureFrom() const { return measureFrom_; }

    /**
     * Node @p node 's lane, created on first use (single-threaded
     * construction time only; during a sharded run each shard must
     * touch only its own nodes' pre-created lanes).
     */
    MetricsLane&
    lane(int node)
    {
        const auto index = static_cast<std::size_t>(node);
        if (index >= lanes_.size())
            growLanes(index + 1);
        return *lanes_[index];
    }

    // Merged read-side accessors. Each call re-merges the lanes in
    // ascending node order - cheap at end-of-run reporting scale,
    // deterministic regardless of how the run was sharded. The
    // returned reference is invalidated by the next accessor call.

    /** Frame delivery-interval statistics. */
    const stats::IntervalTracker& frames() const;

    /** Best-effort message latency in microseconds (host to sink). */
    const stats::Accumulator& beLatency() const;

    /** Best-effort in-network latency (NI exit to sink). */
    const stats::Accumulator& beNetworkLatency() const;

    /**
     * Best-effort total-latency distribution (10 us buckets up to
     * 50 ms; tail quantiles via quantile()).
     */
    const stats::Histogram& beLatencyHistogram() const;

    /** Real-time message latency in microseconds. */
    const stats::Accumulator& rtMessageLatency() const;

    /** Total best-effort messages delivered (measured or not). */
    std::uint64_t beMessages() const;

    /** Total real-time messages delivered (measured or not). */
    std::uint64_t rtMessages() const;

    /** Total flits delivered to sinks. */
    std::uint64_t flitsDelivered() const;

  private:
    static constexpr sim::Tick kDisabled =
        std::numeric_limits<sim::Tick>::max();

    void growLanes(std::size_t count);

    std::vector<std::unique_ptr<MetricsLane>> lanes_;
    sim::Tick measureFrom_ = kDisabled;

    /** Scratch for the merged views; rebuilt by each accessor. */
    struct Merged
    {
        stats::IntervalTracker frames;
        stats::Accumulator beLatency;
        stats::Accumulator beNetworkLatency;
        stats::Histogram beLatencyHistogram{0.0, 50000.0, 5000};
        stats::Accumulator rtMessageLatency;
    };
    mutable Merged merged_;
};

// --- MetricsLane inline recorders (hot path) -------------------------------

inline void
MetricsLane::recordFrameDelivery(sim::StreamId stream, sim::Tick now)
{
    if (!frames_.enabled() && now >= hub_->measureFrom())
        frames_.enable();
    frames_.recordDelivery(stream, now);
    if (telemetry_ != nullptr)
        telemetry_->recordFrameDelivery(stream, now);
}

inline void
MetricsLane::recordRtMessage(sim::StreamId stream,
                             sim::Tick inject_time, sim::Tick now)
{
    ++rtMessages_;
    if (inject_time >= hub_->measureFrom())
        rtMessageLatency_.add(sim::toMicroseconds(now - inject_time));
    if (telemetry_ != nullptr) {
        telemetry_->recordMessageDelay(
            stream, sim::toMicroseconds(now - inject_time));
    }
}

inline void
MetricsLane::recordBeMessage(sim::Tick inject_time,
                             sim::Tick network_enter_time, sim::Tick now)
{
    ++beMessages_;
    if (inject_time >= hub_->measureFrom()) {
        const double total_us = sim::toMicroseconds(now - inject_time);
        beLatency_.add(total_us);
        beLatencyHistogram_.add(total_us);
        beNetworkLatency_.add(
            sim::toMicroseconds(now - network_enter_time));
    }
}

inline void
MetricsLane::recordFlit(sim::StreamId stream, sim::Tick now)
{
    ++flitsDelivered_;
    if (telemetry_ != nullptr)
        telemetry_->recordFlit(stream, now);
}

} // namespace mediaworm::network

#endif // MEDIAWORM_NETWORK_METRICS_HH
