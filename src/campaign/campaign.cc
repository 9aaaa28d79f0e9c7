#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "campaign/seeds.hh"
#include "sim/cpus.hh"
#include "sim/logging.hh"

namespace mediaworm::campaign {

const std::vector<MetricDef>&
metricDefs()
{
    using R = core::ExperimentResult;
    static const std::vector<MetricDef> defs = {
        {"mean_interval_ms",
         +[](const R& r) { return r.meanIntervalMs; }, true},
        {"stddev_interval_ms",
         +[](const R& r) { return r.stddevIntervalMs; }, true},
        {"mean_interval_norm_ms",
         +[](const R& r) { return r.meanIntervalNormMs; }, true},
        {"stddev_interval_norm_ms",
         +[](const R& r) { return r.stddevIntervalNormMs; }, true},
        {"be_latency_us",
         +[](const R& r) { return r.beLatencyUs; }, true},
        {"be_network_latency_us",
         +[](const R& r) { return r.beNetworkLatencyUs; }, true},
        {"be_latency_p99_us",
         +[](const R& r) { return r.beLatencyP99Us; }, true},
        {"rt_message_latency_us",
         +[](const R& r) { return r.rtMessageLatencyUs; }, true},
        {"simulated_ms",
         +[](const R& r) { return r.simulatedMs; }, true},
        {"wall_seconds",
         +[](const R& r) { return r.wallSeconds; }, false},
        {"events_per_sec",
         +[](const R& r) { return r.eventsPerSec; }, false},
    };
    return defs;
}

const MetricSummary&
PointSummary::metric(std::string_view name) const
{
    const auto& defs = metricDefs();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        if (name == defs[i].name)
            return metrics[i];
    }
    sim::fatal("PointSummary: unknown metric '%.*s'",
               static_cast<int>(name.size()), name.data());
}

Campaign::Campaign(CampaignConfig cfg) : cfg_(cfg)
{
    if (cfg_.jobs < 0)
        sim::fatal("Campaign: jobs must be >= 0, got %d", cfg_.jobs);
    if (cfg_.replications < 1)
        sim::fatal("Campaign: replications must be >= 1, got %d",
                   cfg_.replications);
}

int
Campaign::effectiveJobs() const
{
    if (cfg_.jobs != 0)
        return cfg_.jobs;
    return std::max(1, sim::usableCpus() / maxShards_);
}

std::optional<std::uint64_t>
Campaign::rootSeed() const
{
    if (points_.empty())
        return std::nullopt;
    const std::uint64_t root = points_.front().seedRoot;
    for (const Point& point : points_) {
        if (point.seedRoot != root)
            return std::nullopt;
    }
    return root;
}

int
Campaign::addPoint(std::string label, core::ExperimentConfig cfg)
{
    // shards = 0 (auto) resolves per run inside runExperiment; budget
    // at least one thread per job for it.
    maxShards_ = std::max(maxShards_, cfg.shards);
    const std::uint64_t root = cfg.seed;
    return addJob(
        std::move(label),
        [cfg](std::uint64_t seed, int) {
            core::ExperimentConfig run = cfg;
            run.seed = seed;
            return core::runExperiment(run);
        },
        root);
}

int
Campaign::addJob(std::string label, Runner runner,
                 std::uint64_t seedRoot)
{
    points_.push_back({std::move(label), std::move(runner), seedRoot});
    return static_cast<int>(points_.size()) - 1;
}

void
Campaign::runOne(std::size_t point, int replication)
{
    const Point& p = points_[point];
    const std::uint64_t seed =
        deriveSeed(p.seedRoot, point,
                   static_cast<std::uint64_t>(replication));
    results_[point].reps[static_cast<std::size_t>(replication)] =
        p.runner(seed, replication);
}

const std::vector<PointSummary>&
Campaign::run()
{
    const auto start = std::chrono::steady_clock::now();
    const auto reps = static_cast<std::size_t>(cfg_.replications);
    const int jobs = effectiveJobs();
    const std::size_t total = points_.size() * reps;

    results_.clear();
    results_.resize(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        results_[i].label = points_[i].label;
        results_[i].reps.resize(reps);
    }

    std::mutex progressMutex;
    std::size_t done = 0;
    auto tick = [&] {
        // Called after each completed run; prints done/total + ETA.
        if (!cfg_.showProgress)
            return;
        std::lock_guard<std::mutex> lock(progressMutex);
        ++done;
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        const double eta = elapsed
            * static_cast<double>(total - done)
            / static_cast<double>(done);
        std::fprintf(stderr,
                     "\rcampaign: %zu/%zu runs (%.0f%%) "
                     "elapsed %.1fs eta %.1fs ",
                     done, total,
                     100.0 * static_cast<double>(done)
                         / static_cast<double>(total),
                     elapsed, eta);
        if (done == total)
            std::fputc('\n', stderr);
        std::fflush(stderr);
    };

    // The calling thread and jobs - 1 helpers claim flat
    // (point, replication) indices from one counter until none are
    // left; every run writes only its own pre-allocated slot.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < total; i = next++) {
            runOne(i / reps, static_cast<int>(i % reps));
            tick();
        }
    };
    std::vector<std::thread> helpers;
    for (int t = 1; t < jobs && static_cast<std::size_t>(t) < total; ++t)
        helpers.emplace_back(work);
    work();
    for (std::thread& helper : helpers)
        helper.join();

    aggregatePoints();

    totalEvents_ = 0;
    for (const PointSummary& summary : results_)
        for (const core::ExperimentResult& r : summary.reps)
            totalEvents_ += r.eventsFired;

    wallSeconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return results_;
}

void
Campaign::aggregatePoints()
{
    const auto& defs = metricDefs();
    std::vector<double> values;
    for (PointSummary& summary : results_) {
        summary.metrics.clear();
        summary.metrics.reserve(defs.size());
        for (const MetricDef& def : defs) {
            values.clear();
            for (const core::ExperimentResult& r : summary.reps)
                values.push_back(def.get(r));
            summary.metrics.push_back(aggregate(values));
        }
    }
}

} // namespace mediaworm::campaign
