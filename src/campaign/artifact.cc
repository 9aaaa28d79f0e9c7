#include "campaign/artifact.hh"

#include <algorithm>
#include <cstdio>

#include "calculus/oracle.hh"
#include "campaign/json.hh"
#include "obs/telemetry.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::campaign {

namespace {

void
writeSummary(JsonWriter& json, const MetricSummary& s)
{
    json.beginObject();
    json.member("mean", s.mean);
    json.member("stddev", s.stddev);
    json.member("ci95", s.ci95);
    json.member("n", static_cast<std::uint64_t>(s.n));
    json.endObject();
}

void
writeCounts(JsonWriter& json, const core::ExperimentResult& r)
{
    json.beginObject();
    json.member("interval_samples", r.intervalSamples);
    json.member("frames_delivered", r.framesDelivered);
    json.member("be_messages", r.beMessages);
    json.member("flits_delivered", r.flitsDelivered);
    json.member("events_fired", r.eventsFired);
    json.member("elided_events", r.elidedEvents);
    json.member("rt_streams", static_cast<std::int64_t>(r.rtStreams));
    json.member("streams_per_node",
                static_cast<std::int64_t>(r.streamsPerNode));
    json.member("truncated", r.truncated);
    json.endObject();
}

/**
 * Per-stream telemetry of replication 0 (deterministic - it is the
 * same simulation whatever the jobs count). All times land on the
 * paper's unscaled-ms axis via the report's timeScale.
 */
void
writeTelemetry(JsonWriter& json, const obs::TelemetryReport& t)
{
    const double scale = t.timeScale > 0.0 ? t.timeScale : 1.0;
    json.beginObject();
    json.member("window_ms", sim::toMilliseconds(t.window));
    json.member("time_scale", t.timeScale);
    json.member("worst_stream",
                static_cast<std::int64_t>(
                    t.worstStream.valid() ? t.worstStream.value()
                                          : -1));
    json.member("worst_sigma_d_norm_ms", t.worstStddevMs / scale);
    json.key("streams");
    json.beginArray();
    for (const obs::StreamSeries& series : t.streams) {
        json.beginObject();
        json.member("stream", static_cast<std::int64_t>(
                                  series.stream.value()));
        json.member("frames", series.frames);
        json.member("intervals", series.intervalCount);
        json.member("d_norm_ms", series.meanIntervalMs / scale);
        json.member("sigma_d_norm_ms",
                    series.stddevIntervalMs / scale);
        json.key("series");
        json.beginArray();
        for (const obs::TelemetrySample& sample : series.samples) {
            json.beginObject();
            json.member("t_norm_ms",
                        sim::toMilliseconds(sample.windowStart)
                            / scale);
            json.member("frames", sample.frames);
            json.member("flits", sample.flits);
            json.member("intervals", sample.intervalCount);
            json.member("d_norm_ms", sample.meanIntervalMs / scale);
            json.member("sigma_d_norm_ms",
                        sample.stddevIntervalMs / scale);
            json.member("mbps", sample.mbps);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

/**
 * Analytic bounds of replication 0 (deterministic: the oracle is a
 * pure function of configuration and seed). When the same run also
 * gathered telemetry, each stream carries its observed whole-run
 * worst message delay so bound-vs-observed margins can be read
 * directly from the artifact. Times are in the run's (scaled)
 * microseconds - the same base the telemetry delays use.
 */
void
writeBounds(JsonWriter& json, const calculus::BoundsReport& bounds,
            const obs::TelemetryReport* telemetry)
{
    json.beginObject();
    json.member("streams", static_cast<std::int64_t>(
                               bounds.streams.size()));
    json.member("unbounded",
                static_cast<std::int64_t>(bounds.unboundedStreams));
    json.member("max_bound_us", bounds.maxBoundUs);

    double min_margin = calculus::kUnbounded;
    if (telemetry != nullptr) {
        for (const calculus::StreamBound& b : bounds.streams) {
            const obs::StreamSeries* series =
                telemetry->find(b.stream);
            if (series == nullptr || !b.bounded)
                continue;
            min_margin = std::min(
                min_margin, b.boundUs - series->worstMessageDelayUs);
        }
    }
    // Non-finite doubles serialise as null (JsonWriter contract).
    json.member("min_margin_us", min_margin);

    json.key("per_stream");
    json.beginArray();
    for (const calculus::StreamBound& b : bounds.streams) {
        json.beginObject();
        json.member("stream",
                    static_cast<std::int64_t>(b.stream.value()));
        json.member("hops", static_cast<std::int64_t>(b.hops));
        json.member("sigma_flits", b.sigmaFlits);
        json.member("rho_flits_per_us", b.rhoFlitsPerUs);
        json.member("reserved_flits_per_us", b.reservedFlitsPerUs);
        json.member("bound_us", b.boundUs);
        if (telemetry != nullptr) {
            const obs::StreamSeries* series =
                telemetry->find(b.stream);
            if (series != nullptr) {
                json.member("observed_worst_us",
                            series->worstMessageDelayUs);
            }
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace

std::string
toJson(const Campaign& campaign, const ArtifactOptions& options)
{
    const auto& defs = metricDefs();
    JsonWriter json;
    json.beginObject();
    json.member("schema", kArtifactSchema);
    json.member("name", options.name);
    if (const auto root = campaign.rootSeed())
        json.member("root_seed", *root);
    json.member("replications", static_cast<std::int64_t>(
                                    campaign.config().replications));

    json.key("points");
    json.beginArray();
    for (const PointSummary& point : campaign.results()) {
        json.beginObject();
        json.member("label", point.label);
        json.key("metrics");
        json.beginObject();
        for (std::size_t i = 0; i < defs.size(); ++i) {
            if (!defs[i].deterministic)
                continue;
            json.key(defs[i].name);
            writeSummary(json, point.metrics[i]);
        }
        json.endObject();
        json.key("counts");
        writeCounts(json, point.first());
        const auto& obs0 = point.first().observations;
        const obs::TelemetryReport* telemetry0 =
            obs0 != nullptr && obs0->telemetry ? &*obs0->telemetry
                                               : nullptr;
        if (telemetry0 != nullptr) {
            json.key("telemetry");
            writeTelemetry(json, *telemetry0);
        }
        const auto& bounds0 = point.first().bounds;
        if (bounds0 != nullptr) {
            json.key("bounds");
            writeBounds(json, *bounds0, telemetry0);
        }
        json.endObject();
    }
    json.endArray();

    if (options.includeTiming) {
        json.key("timing");
        json.beginObject();
        json.member("jobs", static_cast<std::int64_t>(
                                campaign.effectiveJobs()));
        json.member("wall_seconds", campaign.wallSeconds());
        const double wall = campaign.wallSeconds();
        json.member("events_per_sec",
                    wall > 0.0
                        ? static_cast<double>(campaign.totalEvents())
                            / wall
                        : 0.0);
        json.key("points");
        json.beginArray();
        for (const PointSummary& point : campaign.results()) {
            json.beginObject();
            json.member("label", point.label);
            for (std::size_t i = 0; i < defs.size(); ++i) {
                if (defs[i].deterministic)
                    continue;
                json.key(defs[i].name);
                writeSummary(json, point.metrics[i]);
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    json.endObject();
    return json.str();
}

bool
writeTextFile(const std::string& path, const std::string& text)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) {
        sim::warn("writeTextFile: cannot open '%s' for writing",
                  path.c_str());
        return false;
    }
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), file);
    const bool ok = written == text.size()
        && std::fputc('\n', file) != EOF;
    std::fclose(file);
    if (!ok)
        sim::warn("writeTextFile: short write to '%s'", path.c_str());
    return ok;
}

bool
writeArtifact(const std::string& path, const Campaign& campaign,
              const ArtifactOptions& options)
{
    return writeTextFile(path, toJson(campaign, options));
}

} // namespace mediaworm::campaign
