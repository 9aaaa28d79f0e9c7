#include "obs/telemetry.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mediaworm::obs {

namespace {

constexpr double kMs = static_cast<double>(sim::kMillisecond);

} // namespace

const StreamSeries*
TelemetryReport::find(sim::StreamId stream) const
{
    for (const StreamSeries& series : streams) {
        if (series.stream == stream)
            return &series;
    }
    return nullptr;
}

StreamTelemetry::StreamTelemetry(const TelemetryConfig& cfg)
    : cfg_(cfg)
{
    MW_ASSERT(cfg.window > 0);
}

StreamTelemetry::StreamState&
StreamTelemetry::stateFor(sim::StreamId stream)
{
    StreamState& state = streams_[stream];
    // First touch this window: both counters are still zero (they are
    // incremented by the caller after this returns, and only reset
    // when the window closes), so this pushes exactly once per stream
    // per window.
    if (state.windowFlits == 0 && state.windowFrames == 0)
        activeInWindow_.push_back(stream);
    return state;
}

void
StreamTelemetry::rollWindows(sim::Tick now)
{
    while (now >= windowStart_ + cfg_.window)
        closeWindow();
}

void
StreamTelemetry::closeWindow()
{
    const sim::Tick end = windowStart_ + cfg_.window;
    // Sort so the samples land in deterministic order regardless of
    // the observation interleaving that first touched each stream.
    std::sort(activeInWindow_.begin(), activeInWindow_.end());
    for (sim::StreamId id : activeInWindow_) {
        StreamState& state = streams_[id];
        const std::uint64_t flits = state.windowFlits;
        if (flits == 0 && state.windowFrames == 0)
            continue;
        TelemetrySample sample;
        sample.windowStart = windowStart_;
        sample.windowEnd = end;
        sample.frames = state.windowFrames;
        sample.flits = flits;
        sample.intervalCount = state.windowIntervals.count();
        sample.meanIntervalMs = state.windowIntervals.mean() / kMs;
        sample.stddevIntervalMs = state.windowIntervals.stddev() / kMs;
        // bits / window-seconds / 1e6 = Mbps; invariant under time
        // scaling (bytes and time shrink together).
        sample.mbps = static_cast<double>(flits)
            * static_cast<double>(cfg_.flitSizeBits)
            / sim::toSeconds(cfg_.window) / 1e6;
        state.samples.push_back(sample);
        state.windowFlits = 0;
        state.windowIntervals.reset();
        state.windowFrames = 0;
    }
    activeInWindow_.clear();
    windowStart_ = end;
}

void
StreamTelemetry::recordFrameDelivery(sim::StreamId stream,
                                     sim::Tick now)
{
    rollWindows(now);
    StreamState& state = stateFor(stream);
    ++state.windowFrames;
    ++state.totalFrames;
    if (state.lastDelivery != sim::kTickNever) {
        const double interval =
            static_cast<double>(now - state.lastDelivery);
        state.windowIntervals.add(interval);
        if (now >= cfg_.measureFrom)
            state.overallIntervals.add(interval);
    }
    state.lastDelivery = now;
}

void
StreamTelemetry::recordFlit(sim::StreamId stream, sim::Tick now)
{
    rollWindows(now);
    ++stateFor(stream).windowFlits;
}

void
StreamTelemetry::recordMessageDelay(sim::StreamId stream,
                                    double delay_us)
{
    // Direct map access, not stateFor(): this touches no window
    // counter, so it must not mark the stream window-active.
    StreamState& state = streams_[stream];
    ++state.totalMessages;
    state.worstMessageDelayUs =
        std::max(state.worstMessageDelayUs, delay_us);
}

TelemetryReport
StreamTelemetry::finish(sim::Tick end)
{
    // Flush whatever the final (partial or idle) windows hold.
    rollWindows(end);
    if (!activeInWindow_.empty())
        closeWindow();

    TelemetryReport report;
    report.window = cfg_.window;
    report.flitSizeBits = cfg_.flitSizeBits;

    std::vector<sim::StreamId> ids;
    ids.reserve(streams_.size());
    for (const auto& [id, state] : streams_) {
        (void)state;
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());

    report.streams.reserve(ids.size());
    for (sim::StreamId id : ids) {
        StreamState& state = streams_[id];
        StreamSeries series;
        series.stream = id;
        series.samples = std::move(state.samples);
        series.frames = state.totalFrames;
        series.intervalCount = state.overallIntervals.count();
        series.meanIntervalMs = state.overallIntervals.mean() / kMs;
        series.stddevIntervalMs =
            state.overallIntervals.stddev() / kMs;
        series.messages = state.totalMessages;
        series.worstMessageDelayUs = state.worstMessageDelayUs;
        // Worst stream: largest steady-state sigma_d with enough
        // intervals for a meaningful spread; ids ascend, so ties
        // resolve to the lowest id deterministically.
        if (series.intervalCount >= 2
            && series.stddevIntervalMs > report.worstStddevMs) {
            report.worstStream = id;
            report.worstStddevMs = series.stddevIntervalMs;
        }
        report.streams.push_back(std::move(series));
    }
    return report;
}

TelemetryReport
StreamTelemetry::merge(std::vector<TelemetryReport> parts)
{
    MW_ASSERT(!parts.empty());
    if (parts.size() == 1)
        return std::move(parts.front());

    TelemetryReport merged;
    merged.window = parts.front().window;
    merged.timeScale = parts.front().timeScale;
    merged.flitSizeBits = parts.front().flitSizeBits;

    // Per-part cursors over the id-sorted series lists.
    std::vector<std::size_t> cursor(parts.size(), 0);
    for (;;) {
        // Lowest stream id not yet consumed in any part.
        sim::StreamId id;
        for (std::size_t p = 0; p < parts.size(); ++p) {
            if (cursor[p] >= parts[p].streams.size())
                continue;
            const sim::StreamId candidate =
                parts[p].streams[cursor[p]].stream;
            if (!id.valid() || candidate < id)
                id = candidate;
        }
        if (!id.valid())
            break;

        std::vector<StreamSeries*> contributors;
        for (std::size_t p = 0; p < parts.size(); ++p) {
            if (cursor[p] < parts[p].streams.size()
                && parts[p].streams[cursor[p]].stream == id)
                contributors.push_back(
                    &parts[p].streams[cursor[p]++]);
        }

        StreamSeries series;
        series.stream = id;
        for (StreamSeries* c : contributors) {
            series.frames += c->frames;
            series.messages += c->messages;
            series.worstMessageDelayUs = std::max(
                series.worstMessageDelayUs, c->worstMessageDelayUs);
            if (c->intervalCount > 0) {
                // Frame deliveries of a stream all land at one sink,
                // so exactly one collector measured its intervals.
                MW_ASSERT(series.intervalCount == 0);
                series.intervalCount = c->intervalCount;
                series.meanIntervalMs = c->meanIntervalMs;
                series.stddevIntervalMs = c->stddevIntervalMs;
            }
        }

        // Merge the window series by windowStart (each contributor's
        // samples ascend; best-effort streams deliver to sinks on
        // several shards, so counts add within a window).
        std::vector<std::size_t> at(contributors.size(), 0);
        for (;;) {
            sim::Tick start = sim::kTickNever;
            for (std::size_t c = 0; c < contributors.size(); ++c) {
                if (at[c] >= contributors[c]->samples.size())
                    continue;
                const sim::Tick s =
                    contributors[c]->samples[at[c]].windowStart;
                if (start == sim::kTickNever || s < start)
                    start = s;
            }
            if (start == sim::kTickNever)
                break;
            TelemetrySample sample;
            sample.windowStart = start;
            sample.windowEnd = start + merged.window;
            for (std::size_t c = 0; c < contributors.size(); ++c) {
                if (at[c] >= contributors[c]->samples.size()
                    || contributors[c]->samples[at[c]].windowStart
                        != start)
                    continue;
                const TelemetrySample& part =
                    contributors[c]->samples[at[c]++];
                sample.frames += part.frames;
                sample.flits += part.flits;
                if (part.intervalCount > 0) {
                    MW_ASSERT(sample.intervalCount == 0);
                    sample.intervalCount = part.intervalCount;
                    sample.meanIntervalMs = part.meanIntervalMs;
                    sample.stddevIntervalMs = part.stddevIntervalMs;
                }
            }
            sample.mbps = static_cast<double>(sample.flits)
                * static_cast<double>(merged.flitSizeBits)
                / sim::toSeconds(merged.window) / 1e6;
            series.samples.push_back(sample);
        }

        if (series.intervalCount >= 2
            && series.stddevIntervalMs > merged.worstStddevMs) {
            merged.worstStream = id;
            merged.worstStddevMs = series.stddevIntervalMs;
        }
        merged.streams.push_back(std::move(series));
    }
    return merged;
}

} // namespace mediaworm::obs
