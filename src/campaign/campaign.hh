/**
 * @file
 * Parallel experiment campaign engine.
 *
 * A Campaign is a list of labelled experiment points, each run
 * `replications` times with deterministically derived seeds (see
 * seeds.hh), fanned out across worker threads and aggregated into
 * per-metric mean / stddev / 95% confidence intervals.
 *
 * Determinism contract: every (point, replication) run receives a
 * seed that depends only on (point seed, point index, replication
 * index), and each run writes a pre-allocated result slot that no
 * other run touches. Aggregation walks the slots in index order.
 * Consequently a campaign's aggregates - and its JSON artifact minus
 * the timing section - are bit-identical at jobs=1 and jobs=N.
 */

#ifndef MEDIAWORM_CAMPAIGN_CAMPAIGN_HH
#define MEDIAWORM_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/aggregate.hh"
#include "core/experiment.hh"

namespace mediaworm::campaign {

/** How a campaign executes its points. */
struct CampaignConfig
{
    /**
     * Worker threads, the calling thread included (1 runs
     * everything on the caller); 0 means one per usable CPU
     * (sim::usableCpus) divided by the widest point's shard count
     * (Campaign::effectiveJobs).
     */
    int jobs = 1;

    /** Seed replications per point (>= 1). */
    int replications = 1;

    /** Live "done/total + ETA" line on stderr while running. */
    bool showProgress = false;
};

/**
 * One aggregatable metric of ExperimentResult.
 *
 * `deterministic` metrics depend only on the seed and configuration;
 * non-deterministic ones (wall-clock derived) are reported under the
 * artifact's timing section instead of its aggregate section.
 */
struct MetricDef
{
    const char* name; ///< snake_case key used in JSON artifacts.
    double (*get)(const core::ExperimentResult&);
    bool deterministic;
};

/** The fixed metric table shared by campaigns, benches and tools. */
const std::vector<MetricDef>& metricDefs();

/** One completed point: raw replications plus aggregates. */
struct PointSummary
{
    std::string label;

    /** Raw results, indexed by replication. */
    std::vector<core::ExperimentResult> reps;

    /** Aggregates, aligned with metricDefs(). */
    std::vector<MetricSummary> metrics;

    /** Replication 0's raw result (the jobs=1, reps=1 classic view). */
    const core::ExperimentResult& first() const { return reps.front(); }

    /** Aggregate for metric @p name; fatal if unknown. */
    const MetricSummary& metric(std::string_view name) const;

    /** Shorthand for metric(name).mean. */
    double mean(std::string_view name) const
    {
        return metric(name).mean;
    }
};

/** Runs experiment points in parallel and aggregates replications. */
class Campaign
{
  public:
    /**
     * One replication's work: run with @p seed and return the
     * measured result. @p replication is provided so adapters
     * wrapping foreign experiment types (e.g. PCS) can stash their
     * native result in a per-replication side slot.
     */
    using Runner = std::function<core::ExperimentResult(
        std::uint64_t seed, int replication)>;

    explicit Campaign(CampaignConfig cfg = {});

    /**
     * Adds a standard wormhole experiment point. The point's seed
     * root is @p cfg.seed; the seed actually run is
     * deriveSeed(cfg.seed, index, replication).
     *
     * @return The point's index (insertion order).
     */
    int addPoint(std::string label, core::ExperimentConfig cfg);

    /**
     * Adds a custom point executed through @p runner; @p seedRoot
     * feeds the same derivation as addPoint. Used to drive non-core
     * experiments (PCS) through the same fan-out and aggregation.
     */
    int addJob(std::string label, Runner runner,
               std::uint64_t seedRoot);

    /** Number of points added. */
    std::size_t size() const { return points_.size(); }

    const CampaignConfig& config() const { return cfg_; }

    /**
     * Worker-thread count: jobs as configured, or for jobs == 0 the
     * usable CPUs divided by the largest max(1, shards) among the
     * addPoint() points (addJob() points count as 1), so that
     * jobs x shards stays within the machine instead of
     * oversubscribing it.
     */
    int effectiveJobs() const;

    /** The seed root every point shares; empty when the points
     *  disagree or there are none. */
    std::optional<std::uint64_t> rootSeed() const;

    /**
     * Runs every (point, replication) pair and aggregates.
     * @return Summaries in point insertion order.
     */
    const std::vector<PointSummary>& run();

    /** Summaries from the last run(). */
    const std::vector<PointSummary>& results() const
    {
        return results_;
    }

    /** Wall-clock duration of the last run(), in seconds. */
    double wallSeconds() const { return wallSeconds_; }

    /** Total kernel events fired across all runs of the last run(). */
    std::uint64_t totalEvents() const { return totalEvents_; }

  private:
    struct Point
    {
        std::string label;
        Runner runner;
        std::uint64_t seedRoot;
    };

    void runOne(std::size_t point, int replication);
    void aggregatePoints();

    CampaignConfig cfg_;
    std::vector<Point> points_;
    /** Largest max(1, shards) over the points (effectiveJobs). */
    int maxShards_ = 1;
    std::vector<PointSummary> results_;
    double wallSeconds_ = 0.0;
    std::uint64_t totalEvents_ = 0;
};

} // namespace mediaworm::campaign

#endif // MEDIAWORM_CAMPAIGN_CAMPAIGN_HH
