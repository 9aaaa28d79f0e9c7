/**
 * @file
 * Shared scaffolding for the figure/table benchmark binaries.
 *
 * Every bench builds a campaign of labelled experiment points and
 * runs it through the parallel campaign engine (src/campaign/), so
 * wall-clock time scales with cores rather than point count while
 * results stay bit-identical to a sequential run. Environment knobs:
 *
 *   MW_BENCH_FRAMES    measured frames per stream (default 6)
 *   MW_BENCH_SCALE     time-scale compression (default 0.1)
 *   MW_BENCH_JOBS      worker threads (default: hardware threads)
 *   MW_BENCH_REPS      seed replications per point (default 1)
 *   MW_BENCH_JSON_DIR  if set, write a BENCH_<name>.json campaign
 *                      artifact (schema mediaworm-campaign-v3,
 *                      timing section included) into this directory
 *
 * The numeric knobs take mediaworm_sim's ranges for --frames,
 * --scale, --jobs and --replications. A value that is junk, not
 * finite or out of range exits 2 naming the variable, before any
 * simulation starts.
 */

#ifndef MEDIAWORM_BENCH_COMMON_HH
#define MEDIAWORM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "config/options.hh"
#include "core/mediaworm.hh"

namespace bench {

/** Integer environment knob in [@p lo, @p hi], with a default. */
inline int
envInt(const char* name, int fallback, int lo, int hi)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    long value = 0;
    if (!mediaworm::config::parseLong(env, &value) || value < lo
        || value > hi) {
        std::fprintf(stderr, "error: %s='%s': expected an integer in "
                     "[%d, %d]\n", name, env, lo, hi);
        std::exit(2);
    }
    return static_cast<int>(value);
}

/** Real environment knob in [@p lo, @p hi], with a default. */
inline double
envDouble(const char* name, double fallback, double lo, double hi)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    double value = 0.0;
    if (!mediaworm::config::parseFiniteDouble(env, &value)
        || !(lo <= value && value <= hi)) {
        std::fprintf(stderr, "error: %s='%s': expected a finite number "
                     "in [%g, %g]\n", name, env, lo, hi);
        std::exit(2);
    }
    return value;
}

/** Measured frames per stream (env-overridable). */
inline int
measuredFrames()
{
    return envInt("MW_BENCH_FRAMES", 6, 1, 1000);
}

/** Time-scale compression (env-overridable). */
inline double
timeScale()
{
    return envDouble("MW_BENCH_SCALE", 0.1, 0.001, 1.0);
}

/** Campaign execution settings from the environment. */
inline mediaworm::campaign::CampaignConfig
campaignConfig()
{
    mediaworm::campaign::CampaignConfig cfg;
    cfg.jobs = envInt("MW_BENCH_JOBS", 0, 0, 256); // 0 = all CPUs
    cfg.replications = envInt("MW_BENCH_REPS", 1, 1, 1000);
    cfg.showProgress = true;
    return cfg;
}

/** Paper-default experiment configuration (Table 1). */
inline mediaworm::core::ExperimentConfig
paperConfig()
{
    mediaworm::core::ExperimentConfig cfg;
    cfg.router.numPorts = 8;
    cfg.router.numVcs = 16;
    cfg.router.flitBufferDepth = 20;
    cfg.router.flitSizeBits = 32;
    cfg.router.linkBandwidthMbps = 400;
    cfg.traffic.warmupFrames = 2;
    cfg.traffic.measuredFrames = measuredFrames();
    cfg.timeScale = timeScale();
    return cfg;
}

/**
 * Runs @p campaign, writes the BENCH_<name>.json artifact when
 * MW_BENCH_JSON_DIR is set, and prints campaign throughput.
 *
 * @return Point summaries in insertion order.
 */
inline const std::vector<mediaworm::campaign::PointSummary>&
runCampaign(const char* name, mediaworm::campaign::Campaign& campaign)
{
    const auto& results = campaign.run();

    if (const char* dir = std::getenv("MW_BENCH_JSON_DIR")) {
        mediaworm::campaign::ArtifactOptions options;
        options.name = name;
        const std::string path =
            std::string(dir) + "/BENCH_" + name + ".json";
        if (mediaworm::campaign::writeArtifact(path, campaign,
                                               options))
            std::fprintf(stderr, "wrote %s\n", path.c_str());
    }

    const double wall = campaign.wallSeconds();
    std::fprintf(stderr,
                 "campaign: %zu points x %d reps on %d jobs in "
                 "%.2fs (%.2f Mev/s)\n",
                 campaign.size(), campaign.config().replications,
                 campaign.effectiveJobs(), wall,
                 wall > 0.0
                     ? static_cast<double>(campaign.totalEvents())
                         / wall / 1e6
                     : 0.0);
    return results;
}

/** Prints the bench banner. */
inline void
banner(const char* experiment, const char* what)
{
    std::printf("=== MediaWorm reproduction: %s ===\n%s\n", experiment,
                what);
    std::printf("(timeScale=%.2f, measured frames=%d; d and sigma_d "
                "are re-normalised to the paper's 33 ms axis)\n\n",
                timeScale(), measuredFrames());
}

} // namespace bench

#endif // MEDIAWORM_BENCH_COMMON_HH
