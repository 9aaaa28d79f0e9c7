/**
 * @file
 * Tests for the parallel campaign engine: seed derivation, the
 * worker fan-out, confidence-interval math, the JSON writer, and the
 * parallel-vs-sequential determinism contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include "campaign/aggregate.hh"
#include "campaign/artifact.hh"
#include "campaign/campaign.hh"
#include "campaign/json.hh"
#include "campaign/seeds.hh"
#include "core/experiment.hh"
#include "sim/cpus.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::campaign;

// --- Seed derivation ---------------------------------------------------

TEST(Seeds, DerivationIsDeterministic)
{
    EXPECT_EQ(deriveSeed(1, 2, 3), deriveSeed(1, 2, 3));
    EXPECT_NE(deriveSeed(1, 0, 0), 1u) << "root must be mixed";
}

TEST(Seeds, UniqueAcrossPointsAndReplications)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t point = 0; point < 64; ++point)
        for (std::uint64_t rep = 0; rep < 16; ++rep)
            seen.insert(deriveSeed(42, point, rep));
    EXPECT_EQ(seen.size(), 64u * 16u)
        << "every (point, replication) pair needs its own seed";
}

TEST(Seeds, ComponentsAreNotInterchangeable)
{
    // (point, rep) must not commute, and the root must matter.
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(1, 3, 2));
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(2, 2, 3));
}

TEST(Seeds, SplitmixIsBijectiveOnSamples)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t x = 0; x < 4096; ++x)
        seen.insert(splitmix64(x));
    EXPECT_EQ(seen.size(), 4096u);
}

// --- Confidence-interval math ------------------------------------------

TEST(Aggregate, HandComputedFiveValues)
{
    // {1..5}: mean 3, sample stddev sqrt(2.5), t(0.975, df=4)=2.776
    // => ci95 = 2.776 * 1.5811388 / sqrt(5) = 1.96293.
    const MetricSummary s = aggregate({1, 2, 3, 4, 5});
    EXPECT_EQ(s.n, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_NEAR(s.stddev, 1.5811388, 1e-6);
    EXPECT_NEAR(s.ci95, 1.96293, 1e-4);
    EXPECT_NEAR(s.lo(), 3.0 - 1.96293, 1e-4);
    EXPECT_NEAR(s.hi(), 3.0 + 1.96293, 1e-4);
}

TEST(Aggregate, HandComputedTwoValues)
{
    // {2, 4}: mean 3, stddev sqrt(2), t(0.975, df=1)=12.706
    // => ci95 = 12.706 * sqrt(2) / sqrt(2) = 12.706.
    const MetricSummary s = aggregate({2, 4});
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(s.ci95, 12.706, 1e-9);
}

TEST(Aggregate, SingleValueHasNoErrorBar)
{
    const MetricSummary s = aggregate({7.5});
    EXPECT_EQ(s.n, 1u);
    EXPECT_DOUBLE_EQ(s.mean, 7.5);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(Aggregate, TCriticalTable)
{
    EXPECT_NEAR(tCritical95(1), 12.706, 1e-9);
    EXPECT_NEAR(tCritical95(4), 2.776, 1e-9);
    EXPECT_NEAR(tCritical95(30), 2.042, 1e-9);
    EXPECT_NEAR(tCritical95(100), 1.960, 1e-9);
}

// --- JSON writer -------------------------------------------------------

TEST(Json, ObjectsArraysAndEscapes)
{
    JsonWriter json;
    json.beginObject();
    json.member("name", "a\"b\\c\nd");
    json.key("values");
    json.beginArray();
    json.value(std::int64_t{-3});
    json.value(2.5);
    json.value(true);
    json.endArray();
    json.endObject();

    const std::string text = json.str();
    EXPECT_NE(text.find("\"a\\\"b\\\\c\\nd\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("-3"), std::string::npos);
    EXPECT_NE(text.find("2.5"), std::string::npos);
    EXPECT_NE(text.find("true"), std::string::npos);
}

TEST(Json, NonFiniteBecomesNull)
{
    JsonWriter json;
    json.beginObject();
    json.member("nan", std::nan(""));
    json.endObject();
    EXPECT_NE(json.str().find("\"nan\": null"), std::string::npos)
        << json.str();
}

TEST(Json, ControlCharactersEscaped)
{
    EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(JsonWriter::escape("\t"), "\\t");
}

// --- Campaign engine ---------------------------------------------------

core::ExperimentConfig
tinyConfig()
{
    core::ExperimentConfig cfg;
    cfg.traffic.warmupFrames = 0;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.02;
    return cfg;
}

Campaign
tinyCampaign(int jobs, int replications)
{
    CampaignConfig ccfg;
    ccfg.jobs = jobs;
    ccfg.replications = replications;
    Campaign camp(ccfg);
    for (double load : {0.3, 0.5, 0.7}) {
        core::ExperimentConfig cfg = tinyConfig();
        cfg.traffic.inputLoad = load;
        camp.addPoint("load=" + std::to_string(load), cfg);
    }
    return camp;
}

TEST(Campaign, ParallelAggregatesMatchSequentialExactly)
{
    Campaign seq = tinyCampaign(1, 3);
    Campaign par = tinyCampaign(8, 3);
    const auto& a = seq.run();
    const auto& b = par.run();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].reps.size(), b[p].reps.size());
        for (std::size_t r = 0; r < a[p].reps.size(); ++r) {
            EXPECT_EQ(a[p].reps[r].eventsFired,
                      b[p].reps[r].eventsFired);
            EXPECT_EQ(a[p].reps[r].framesDelivered,
                      b[p].reps[r].framesDelivered);
        }
        const auto& defs = metricDefs();
        for (std::size_t m = 0; m < defs.size(); ++m) {
            if (!defs[m].deterministic)
                continue;
            EXPECT_EQ(a[p].metrics[m].mean, b[p].metrics[m].mean)
                << defs[m].name;
            EXPECT_EQ(a[p].metrics[m].ci95, b[p].metrics[m].ci95)
                << defs[m].name;
        }
    }
}

TEST(Campaign, ArtifactWithoutTimingIsByteIdenticalAcrossJobs)
{
    Campaign seq = tinyCampaign(1, 2);
    Campaign par = tinyCampaign(8, 2);
    seq.run();
    par.run();

    ArtifactOptions options;
    options.name = "determinism-check";
    options.includeTiming = false;
    EXPECT_EQ(toJson(seq, options), toJson(par, options));
}

TEST(Campaign, ReplicationsUseDistinctSeeds)
{
    Campaign camp = tinyCampaign(1, 3);
    const auto& results = camp.run();
    // Different derived seeds give different event interleavings;
    // identical counts across all pairs would mean a shared seed.
    const auto& reps = results[0].reps;
    EXPECT_FALSE(reps[0].eventsFired == reps[1].eventsFired
                 && reps[1].eventsFired == reps[2].eventsFired)
        << "replications ran with identical seeds";
}

TEST(Campaign, AggregatesCoverAllMetrics)
{
    Campaign camp = tinyCampaign(2, 2);
    const auto& results = camp.run();
    ASSERT_EQ(results.size(), 3u);
    for (const PointSummary& point : results) {
        ASSERT_EQ(point.metrics.size(), metricDefs().size());
        EXPECT_EQ(point.metric("mean_interval_norm_ms").n, 2u);
        EXPECT_GT(point.mean("simulated_ms"), 0.0);
    }
}

TEST(Campaign, ArtifactSchemaShape)
{
    Campaign camp = tinyCampaign(1, 2);
    camp.run();
    ArtifactOptions options;
    options.name = "shape";
    const std::string text = toJson(camp, options);
    EXPECT_NE(text.find("\"schema\": \"mediaworm-campaign-v3\""),
              std::string::npos);
    EXPECT_NE(text.find("\"name\": \"shape\""), std::string::npos);
    EXPECT_NE(text.find("\"points\""), std::string::npos);
    EXPECT_NE(text.find("\"mean_interval_norm_ms\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ci95\""), std::string::npos);
    EXPECT_NE(text.find("\"counts\""), std::string::npos);
    EXPECT_NE(text.find("\"timing\""), std::string::npos);
    // Timing metrics live only in the timing section.
    EXPECT_GT(text.find("\"wall_seconds\""), text.find("\"timing\""));
}

TEST(Campaign, RerunReplacesResults)
{
    Campaign camp = tinyCampaign(1, 1);
    const std::uint64_t first = camp.run()[0].first().eventsFired;
    const auto& again = camp.run();
    ASSERT_EQ(again.size(), 3u) << "one summary per point";
    EXPECT_EQ(again[0].label, "load=" + std::to_string(0.3))
        << "summaries follow point insertion order";
    EXPECT_EQ(again[2].label, "load=" + std::to_string(0.7));
    EXPECT_EQ(again[0].first().eventsFired, first)
        << "campaigns must be deterministic";
}

TEST(Campaign, DerivesJobBudgetAndRootSeedFromPoints)
{
    CampaignConfig ccfg;
    ccfg.jobs = 0;
    Campaign camp(ccfg);
    EXPECT_EQ(camp.effectiveJobs(), sim::usableCpus());
    for (double load : {0.3, 0.5}) {
        core::ExperimentConfig cfg = tinyConfig();
        cfg.traffic.inputLoad = load;
        cfg.shards = 2;
        cfg.seed = 7;
        camp.addPoint("load=" + std::to_string(load), cfg);
    }
    EXPECT_EQ(camp.effectiveJobs(),
              std::max(1, sim::usableCpus() / 2))
        << "jobs x shards must stay within the usable CPUs";
    camp.run();

    ArtifactOptions options;
    options.includeTiming = false;
    EXPECT_NE(toJson(camp, options).find("\"root_seed\": 7,"),
              std::string::npos);

    // Points with different seed roots share none to report.
    core::ExperimentConfig other = tinyConfig();
    other.seed = 8;
    camp.addPoint("seed=8", other);
    camp.run();
    EXPECT_EQ(toJson(camp, options).find("\"root_seed\""),
              std::string::npos);
}

TEST(Campaign, CustomJobAdapterRuns)
{
    CampaignConfig ccfg;
    ccfg.jobs = 2;
    ccfg.replications = 2;
    Campaign camp(ccfg);
    camp.addJob(
        "custom",
        [](std::uint64_t seed, int replication) {
            core::ExperimentResult r;
            r.meanIntervalNormMs =
                static_cast<double>(seed % 100) + replication;
            r.eventsFired = seed;
            return r;
        },
        7);
    const auto& results = camp.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].reps[0].eventsFired, deriveSeed(7, 0, 0));
    EXPECT_EQ(results[0].reps[1].eventsFired, deriveSeed(7, 0, 1));
}

TEST(Campaign, RunsEachReplicationExactlyOnce)
{
    constexpr int kPoints = 3;
    constexpr int kReps = 3;
    CampaignConfig ccfg;
    ccfg.jobs = 4;
    ccfg.replications = kReps;
    Campaign camp(ccfg);
    std::atomic<int> calls[kPoints][kReps] = {};
    for (int p = 0; p < kPoints; ++p) {
        camp.addJob(
            "job",
            [&calls, p](std::uint64_t, int replication) {
                ++calls[p][replication];
                core::ExperimentResult r;
                r.eventsFired =
                    static_cast<std::uint64_t>(10 * p + replication);
                return r;
            },
            1);
    }
    for (int round = 1; round <= 2; ++round) {
        const auto& results = camp.run();
        ASSERT_EQ(results.size(), static_cast<std::size_t>(kPoints));
        for (int p = 0; p < kPoints; ++p) {
            for (int r = 0; r < kReps; ++r) {
                EXPECT_EQ(calls[p][r].load(), round)
                    << "point " << p << " replication " << r;
                EXPECT_EQ(results[static_cast<std::size_t>(p)]
                              .reps[static_cast<std::size_t>(r)]
                              .eventsFired,
                          static_cast<std::uint64_t>(10 * p + r));
            }
        }
    }
}

TEST(Campaign, RerunCoversJobsAddedBetweenRuns)
{
    // The first run has fewer (point, replication) indices than
    // workers; the second, after two more jobs, has more. Each run
    // must claim every index of its own list exactly once.
    constexpr int kReps = 2;
    CampaignConfig ccfg;
    ccfg.jobs = 4;
    ccfg.replications = kReps;
    Campaign camp(ccfg);
    std::atomic<int> calls[3][kReps] = {};
    auto addCounted = [&](int p) {
        camp.addJob(
            "job",
            [&calls, p](std::uint64_t, int replication) {
                ++calls[p][replication];
                return core::ExperimentResult{};
            },
            1);
    };
    addCounted(0);
    EXPECT_EQ(camp.run().size(), 1u);
    addCounted(1);
    addCounted(2);
    EXPECT_EQ(camp.run().size(), 3u);
    for (int r = 0; r < kReps; ++r) {
        EXPECT_EQ(calls[0][r].load(), 2) << "replication " << r;
        EXPECT_EQ(calls[1][r].load(), 1) << "replication " << r;
        EXPECT_EQ(calls[2][r].load(), 1) << "replication " << r;
    }
}

} // namespace
