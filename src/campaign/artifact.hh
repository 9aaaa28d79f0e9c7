/**
 * @file
 * JSON artifact writer: one machine-readable file per campaign.
 *
 * Schema "mediaworm-campaign-v3":
 *
 *   {
 *     "schema": "mediaworm-campaign-v3",
 *     "name": "<campaign name>",
 *     "root_seed": <u64>,   // the seed root all points share;
 *                           // omitted when they differ
 *     "replications": <n>,
 *     "points": [
 *       {
 *         "label": "<point label>",
 *         "metrics": {
 *           "<metric>": {"mean": x, "stddev": x, "ci95": x, "n": n},
 *           ...deterministic metrics from campaign::metricDefs()...
 *         },
 *         "counts": { ...replication-0 integer counters... },
 *         "telemetry": {   // only when the run enabled telemetry
 *           "window_ms": x, "time_scale": x,
 *           "worst_stream": <id or -1>, "worst_sigma_d_norm_ms": x,
 *           "streams": [
 *             {"stream": <id>, "frames": n, "intervals": n,
 *              "d_norm_ms": x, "sigma_d_norm_ms": x,
 *              "series": [
 *                {"t_norm_ms": x, "frames": n, "flits": n,
 *                 "intervals": n, "d_norm_ms": x,
 *                 "sigma_d_norm_ms": x, "mbps": x}, ...]}, ...]
 *         },
 *         "bounds": {      // only when the run enabled the oracle
 *           "streams": n, "unbounded": n, "max_bound_us": x,
 *           "min_margin_us": x,   // min(bound - observed); null
 *                                 // without telemetry or finite bound
 *           "per_stream": [
 *             {"stream": <id>, "hops": n, "sigma_flits": x,
 *              "rho_flits_per_us": x, "reserved_flits_per_us": x,
 *              "bound_us": x,      // null when unbounded
 *              "observed_worst_us": x}, ...] // only with telemetry
 *         }
 *       }, ...
 *     ],
 *     "timing": {            // only when options.includeTiming
 *       "jobs": <n>, "wall_seconds": x, "events_per_sec": x,
 *       "points": [{"label": ..., "wall_seconds": {...},
 *                   "events_per_sec": {...}}, ...]
 *     }
 *   }
 *
 * Everything outside "timing" is a pure function of (configurations,
 * root seed), so the artifact with includeTiming=false - and the
 * document minus its "timing" member otherwise - is byte-identical
 * across jobs=1 and jobs=N runs. The bench binaries emit this same
 * schema (BENCH_*.json), timing included, so per-PR throughput
 * trajectories can be extracted mechanically.
 *
 * v2 was a strict superset of v1 (optional per-point "telemetry"
 * member, per-stream sliding-window series from obs::StreamTelemetry
 * taken from replication 0, re-normalised onto the paper's unscaled
 * axis); v3 is a strict superset of v2: the only change is the
 * optional per-point "bounds" member (per-stream worst-case delay
 * bounds from the calculus oracle, with observed-vs-bound margins
 * when telemetry is also present). Readers that ignore unknown
 * members parse all three generations unchanged; the tests' JSON
 * reader round-trips any of them.
 */

#ifndef MEDIAWORM_CAMPAIGN_ARTIFACT_HH
#define MEDIAWORM_CAMPAIGN_ARTIFACT_HH

#include <string>

#include "campaign/campaign.hh"

namespace mediaworm::campaign {

/** Knobs for toJson()/writeArtifact(). */
struct ArtifactOptions
{
    /** Campaign name recorded in the artifact. */
    std::string name = "campaign";

    /** Emit the (non-deterministic) wall-clock timing section. */
    bool includeTiming = true;
};

/** Current artifact schema identifier. */
inline constexpr const char* kArtifactSchema =
    "mediaworm-campaign-v3";

/** Serialises a completed campaign (must have been run()). */
std::string toJson(const Campaign& campaign,
                   const ArtifactOptions& options = {});

/**
 * Writes @p text to @p path (plus trailing newline).
 * @return False (with a warn) if the file cannot be written.
 */
bool writeTextFile(const std::string& path, const std::string& text);

/** toJson() + writeTextFile() in one call. */
bool writeArtifact(const std::string& path, const Campaign& campaign,
                   const ArtifactOptions& options = {});

} // namespace mediaworm::campaign

#endif // MEDIAWORM_CAMPAIGN_ARTIFACT_HH
