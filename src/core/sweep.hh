/**
 * @file
 * Parameter-sweep runner: the programmatic counterpart of the bench
 * binaries. Builds a list of labelled experiment points from a base
 * configuration plus per-point modifiers and delegates execution to
 * the campaign engine (src/campaign/): points x replications fan out
 * across setJobs() worker threads with deterministic per-(point,
 * replication) seed derivation, and cross-replication aggregates
 * (mean / stddev / 95% CI) are kept alongside each row. The default
 * jobs=1, replications=1 configuration is the classic sequential
 * sweep. Results render as a table, CSV or a JSON campaign artifact.
 */

#ifndef MEDIAWORM_CORE_SWEEP_HH
#define MEDIAWORM_CORE_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/experiment.hh"
#include "core/table.hh"

namespace mediaworm::core {

/** A grid of experiment points sharing a base configuration. */
class Sweep
{
  public:
    /** Mutates one point's configuration before it runs. */
    using Modifier = std::function<void(ExperimentConfig&)>;
    /** Invoked after each point completes (progress reporting). */
    using Progress =
        std::function<void(const std::string&, const ExperimentResult&)>;

    /** @param base Configuration every point starts from; its seed
     *  is the campaign root seed. */
    explicit Sweep(ExperimentConfig base);

    /**
     * Adds one point: @p modify is applied to a copy of the base
     * configuration when the sweep runs.
     */
    void addPoint(std::string label, Modifier modify);

    /**
     * Convenience axis: one point per load value, labelled with the
     * load and composed with @p modify (optional).
     */
    void addLoadAxis(const std::vector<double>& loads,
                     Modifier modify = {});

    /** Number of points added. */
    std::size_t size() const { return points_.size(); }

    /** Worker threads for run(); 1 = sequential (default), 0 = one
     *  per usable CPU. */
    void setJobs(int jobs) { jobs_ = jobs; }

    /** Seed replications per point (default 1). */
    void setReplications(int replications)
    {
        replications_ = replications;
    }

    /**
     * Shards per experiment (ExperimentConfig::shards) for every
     * point; also tells the campaign's jobs=0 heuristic to budget
     * usable CPUs as jobs x shards (campaign.hh). Default 1;
     * 0 = one shard per usable CPU. Deterministic outputs are
     * shard-count invariant.
     */
    void setShards(int shards) { base_.shards = shards; }

    int jobs() const { return jobs_; }
    int replications() const { return replications_; }
    int shards() const { return base_.shards; }

    /** One completed point. */
    struct Row
    {
        std::string label;
        /** Replication 0's raw result (classic single-run view). */
        ExperimentResult result;
        /** All replications plus per-metric aggregates. */
        campaign::PointSummary summary;
    };

    /**
     * Runs every (point, replication) pair - in parallel when
     * setJobs() > 1 - and aggregates replications.
     *
     * @param progress Optional per-point callback, invoked in
     *        insertion order with replication 0's result.
     * @return All rows, in insertion order. Aggregates are
     *         bit-identical for any jobs value (see campaign.hh).
     */
    const std::vector<Row>& run(const Progress& progress = {});

    /** Rows from the last run(). */
    const std::vector<Row>& rows() const { return rows_; }

    /**
     * Renders the standard columns (label, d, sigma_d, best-effort
     * latencies, stream count, wall time, event throughput) for the
     * last run; with replications > 1 a "d ci95" error-bar column is
     * included after d.
     */
    Table toTable() const;

    /** CSV rendering of the standard columns for the last run. */
    std::string toCsv() const;

    /**
     * JSON campaign artifact (schema mediaworm-campaign-v3) for the
     * last run. With @p includeTiming false the output is a pure
     * function of configuration + root seed (byte-identical across
     * jobs settings).
     */
    std::string toJson(const std::string& name = "sweep",
                       bool includeTiming = true) const;

  private:
    struct Point
    {
        std::string label;
        Modifier modify;
    };

    ExperimentConfig base_;
    std::vector<Point> points_;
    std::vector<Row> rows_;
    /** Engine from the last run(); kept for toJson(). */
    campaign::Campaign campaign_;
    int jobs_ = 1;
    int replications_ = 1;
};

} // namespace mediaworm::core

#endif // MEDIAWORM_CORE_SWEEP_HH
