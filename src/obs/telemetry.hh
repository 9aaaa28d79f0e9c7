/**
 * @file
 * Per-stream sliding-window QoS telemetry.
 *
 * The paper's argument is about per-stream behaviour: Virtual Clock
 * keeps every stream's frame-delivery interval pinned at 33 ms while
 * FIFO lets individual streams jitter (Section 5). The end-of-run
 * aggregates in MetricsHub cannot see a scheduler starving one stream
 * while the mean stays flat, so this collector keeps one state record
 * per stream and closes a sample window every `window` ticks:
 * bandwidth (delivered flits), frame count, and the delivery-interval
 * statistics d / sigma_d within the window. Window closing is lazy -
 * driven entirely by delivery observations, never by scheduled
 * events - so an attached collector observes the simulation without
 * perturbing it (same event count, same RNG draws, same
 * digests).
 *
 * A parallel cumulative accumulator per stream (restricted to
 * deliveries at or after `measureFrom`, the steady-state boundary)
 * feeds worst-stream selection: the stream with the largest overall
 * sigma_d, the quantity a QoS regression moves first.
 */

#ifndef MEDIAWORM_OBS_TELEMETRY_HH
#define MEDIAWORM_OBS_TELEMETRY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/ids.hh"
#include "sim/time.hh"
#include "stats/accumulator.hh"

namespace mediaworm::obs {

/** Collector parameters; runExperiment() derives them from the run. */
struct TelemetryConfig
{
    /** Sample window width (> 0); four scaled frame intervals in
     *  runExperiment(). */
    sim::Tick window = 0;

    /** Deliveries before this tick are excluded from the per-stream
     *  overall (steady-state) aggregates; the time series keeps
     *  them, so the warmup transient stays visible. runExperiment()
     *  passes the warmup end. */
    sim::Tick measureFrom = 0;

    /** Flit payload size, for bandwidth conversion. */
    int flitSizeBits = 32;
};

/** One closed window of one stream's activity. */
struct TelemetrySample
{
    sim::Tick windowStart = 0;
    sim::Tick windowEnd = 0;
    std::uint64_t frames = 0;      ///< Frame deliveries in the window.
    std::uint64_t flits = 0;       ///< Flit deliveries in the window.
    double meanIntervalMs = 0.0;   ///< d over in-window intervals.
    double stddevIntervalMs = 0.0; ///< sigma_d over in-window intervals.
    std::uint64_t intervalCount = 0;
    double mbps = 0.0;             ///< Delivered bandwidth.
};

/** One stream's full time series plus overall aggregates. */
struct StreamSeries
{
    sim::StreamId stream;
    /** Windows in which the stream was active, oldest first. Idle
     *  windows produce no sample (the gaps are visible through
     *  windowStart). */
    std::vector<TelemetrySample> samples;

    // Overall steady-state aggregates (deliveries >= measureFrom).
    std::uint64_t frames = 0;        ///< Total frames (whole run).
    std::uint64_t intervalCount = 0; ///< Measured intervals.
    double meanIntervalMs = 0.0;     ///< Overall d.
    double stddevIntervalMs = 0.0;   ///< Overall sigma_d.

    // Whole-run message-delay extrema (not gated on measureFrom:
    // the analytic bound must hold for warmup messages too).
    std::uint64_t messages = 0;          ///< Messages delivered.
    double worstMessageDelayUs = 0.0;    ///< Max host-to-sink delay.
};

/** Everything the collector measured, ready for serialisation. */
struct TelemetryReport
{
    sim::Tick window = 0;
    /** Time-scale compression of the run; divide the (scaled) ms
     *  values by this to land on the paper's 33 ms axis. */
    double timeScale = 1.0;
    /** Flit payload size the bandwidth samples were computed with
     *  (kept so merged reports can recompute them). */
    int flitSizeBits = 32;
    /** Per-stream series, sorted by stream id (deterministic). */
    std::vector<StreamSeries> streams;
    /** Stream with the largest overall sigma_d among streams with
     *  >= 2 measured intervals; invalid if no stream qualifies. */
    sim::StreamId worstStream;
    double worstStddevMs = 0.0;

    /** Series for @p stream; nullptr if it never appeared. */
    const StreamSeries* find(sim::StreamId stream) const;
};

/**
 * The collector. Hook it into a MetricsLane (attachTelemetry) and call
 * finish() after the run drains to obtain the report.
 */
class StreamTelemetry
{
  public:
    /** @param cfg Collector parameters; cfg.window must be > 0. */
    explicit StreamTelemetry(const TelemetryConfig& cfg);

    /** Observes delivery of a complete frame of @p stream. */
    void recordFrameDelivery(sim::StreamId stream, sim::Tick now);

    /** Observes delivery of one flit of @p stream. */
    void recordFlit(sim::StreamId stream, sim::Tick now);

    /**
     * Observes a completed message of @p stream with host-to-sink
     * delay @p delay_us. Feeds only the whole-run per-stream worst
     * delay (the quantity the calculus oracle bounds); windows are
     * untouched, and the companion recordFlit() call at the same
     * timestamp has already rolled them.
     */
    void recordMessageDelay(sim::StreamId stream, double delay_us);

    /** Closes the final partial window and builds the report.
     *  @param end The simulation end time (>= every observation). */
    TelemetryReport finish(sim::Tick end);

    /**
     * Merges per-shard reports (one collector per shard, identical
     * configs) into the report a single whole-network collector would
     * have produced. Windows are absolute-aligned in every collector,
     * so same-window samples of the same stream combine exactly:
     * frame/flit counts add, bandwidth is recomputed from the summed
     * flits, and interval statistics come from the one collector that
     * observed them (a real-time stream sinks at exactly one node,
     * hence one shard). The worst stream is re-selected over the
     * merged series.
     */
    static TelemetryReport merge(std::vector<TelemetryReport> parts);

  private:
    struct StreamState
    {
        // Current-window accumulators.
        std::uint64_t windowFlits = 0;
        stats::Accumulator windowIntervals;
        std::uint64_t windowFrames = 0;
        // Cross-window state.
        sim::Tick lastDelivery = sim::kTickNever;
        // Whole-run aggregates.
        stats::Accumulator overallIntervals; ///< >= measureFrom only.
        std::uint64_t totalFrames = 0;
        std::uint64_t totalMessages = 0;
        double worstMessageDelayUs = 0.0;
        std::vector<TelemetrySample> samples;
    };

    /** Closes every window that ends at or before @p now. */
    void rollWindows(sim::Tick now);
    void closeWindow();
    StreamState& stateFor(sim::StreamId stream);

    TelemetryConfig cfg_;
    sim::Tick windowStart_ = 0;
    std::unordered_map<sim::StreamId, StreamState> streams_;
    /** Streams with activity in the open window (avoids a full map
     *  scan per roll). */
    std::vector<sim::StreamId> activeInWindow_;
};

} // namespace mediaworm::obs

#endif // MEDIAWORM_OBS_TELEMETRY_HH
