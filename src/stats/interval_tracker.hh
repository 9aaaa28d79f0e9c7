/**
 * @file
 * Frame delivery-interval tracking: the paper's primary QoS metrics.
 *
 * The paper reports, per workload point, the mean frame delivery
 * interval d and its standard deviation sigma_d, where the delivery
 * interval is the gap between the delivery times of two successive
 * frames of the same stream at its destination (Section 4.1).
 * d = 33 ms with sigma_d = 0 means jitter-free MPEG-2 delivery.
 */

#ifndef MEDIAWORM_STATS_INTERVAL_TRACKER_HH
#define MEDIAWORM_STATS_INTERVAL_TRACKER_HH

#include <unordered_map>

#include "sim/ids.hh"
#include "sim/time.hh"
#include "stats/accumulator.hh"

namespace mediaworm::stats {

/** Aggregates per-stream frame delivery intervals. */
class IntervalTracker
{
  public:
    IntervalTracker() = default;

    /**
     * Records that @p stream delivered a complete frame at @p now.
     *
     * Frames must be reported in delivery order per stream; the first
     * frame of a stream only establishes the baseline. Samples taken
     * before enable() are discarded (warmup).
     */
    void recordDelivery(sim::StreamId stream, sim::Tick now);

    /**
     * Starts measurement. Intervals that span the enable point are
     * included only if the previous delivery was already seen, which
     * matches the paper's steady-state measurement after warmup.
     */
    void enable() { enabled_ = true; }

    /** True while measurement is running. */
    bool enabled() const { return enabled_; }

    /**
     * Folds @p other 's aggregate statistics into this tracker:
     * measured intervals (parallel Welford merge) and the delivered
     * frame count. Per-stream baselines are not merged - the result
     * is a read-only roll-up, used to combine per-node trackers in
     * canonical node order (network/metrics.hh).
     */
    void mergeFrom(const IntervalTracker& other);

    /** Aggregate over all streams, in ticks. */
    const Accumulator& intervals() const { return intervals_; }

    /** Mean delivery interval d in milliseconds; 0 if no samples. */
    double meanIntervalMs() const;

    /** Standard deviation sigma_d in milliseconds. */
    double stddevIntervalMs() const;

    /** Number of measured intervals. */
    std::uint64_t sampleCount() const { return intervals_.count(); }

    /** Number of frames delivered (measured or not). */
    std::uint64_t framesDelivered() const { return framesDelivered_; }

  private:
    std::unordered_map<sim::StreamId, sim::Tick> lastDelivery_;
    Accumulator intervals_;
    std::uint64_t framesDelivered_ = 0;
    bool enabled_ = false;
};

} // namespace mediaworm::stats

#endif // MEDIAWORM_STATS_INTERVAL_TRACKER_HH
