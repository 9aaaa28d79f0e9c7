/**
 * @file
 * Tests for mediaworm_sim's load sweep: the load=%.2f campaign points
 * and the standard-column results table.
 */

#include <gtest/gtest.h>

#include "campaign/artifact.hh"
#include "load_points.hh"

namespace {

using namespace mediaworm;
using campaign::Campaign;
using campaign::CampaignConfig;
using tools::addLoadPoints;
using tools::resultsTable;

core::ExperimentConfig
tinyBase()
{
    core::ExperimentConfig cfg;
    cfg.traffic.warmupFrames = 0;
    cfg.traffic.measuredFrames = 2;
    cfg.timeScale = 0.02;
    return cfg;
}

TEST(Sweep, RunsEveryPointInOrder)
{
    Campaign camp;
    addLoadPoints(camp, tinyBase(), {0.3, 0.6});
    EXPECT_EQ(camp.size(), 2u);

    const auto& results = camp.run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "load=0.30");
    EXPECT_EQ(results[1].label, "load=0.60");
    EXPECT_LT(results[0].first().rtStreams, results[1].first().rtStreams);
}

TEST(Sweep, LoadAxisLabelsAndApplies)
{
    Campaign camp;
    addLoadPoints(camp, tinyBase(), {0.3, 0.5});
    const auto& results = camp.run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "load=0.30");
    EXPECT_EQ(results[1].label, "load=0.50");
    EXPECT_LT(results[0].first().rtStreams, results[1].first().rtStreams)
        << "each point must run at its own load";
}

TEST(Sweep, LoadAxisComposesWithModifier)
{
    core::ExperimentConfig base = tinyBase();
    base.traffic.realTimeFraction = 1.0;
    Campaign camp;
    addLoadPoints(camp, base, {0.4});
    const auto& results = camp.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].first().beMessages, 0u)
        << "base settings did not survive the load axis";
}

TEST(Sweep, TableAndCsvRenderRows)
{
    Campaign camp;
    addLoadPoints(camp, tinyBase(), {0.3});
    camp.run();

    const core::Table table = resultsTable(camp.results(), false);
    EXPECT_EQ(table.rows(), 1u);
    const std::string text = table.toString();
    EXPECT_NE(text.find("load=0.30"), std::string::npos);
    EXPECT_NE(text.find("sigma_d"), std::string::npos);
    EXPECT_EQ(text.find("d ci95"), std::string::npos)
        << "no CI column without replications";

    const std::string csv = table.toCsv();
    EXPECT_NE(csv.find("point,d (ms)"), std::string::npos);
    EXPECT_NE(csv.find("load=0.30,"), std::string::npos);
}

TEST(Sweep, RerunReplacesRows)
{
    Campaign camp;
    addLoadPoints(camp, tinyBase(), {0.3});
    camp.run();
    const auto first = camp.results()[0].first().eventsFired;
    camp.run();
    EXPECT_EQ(camp.results().size(), 1u);
    EXPECT_EQ(camp.results()[0].first().eventsFired, first)
        << "sweeps must be deterministic";
}

TEST(Sweep, ParallelRowsMatchSequential)
{
    Campaign seq;
    addLoadPoints(seq, tinyBase(), {0.3, 0.4, 0.5});
    seq.run();

    CampaignConfig parCfg;
    parCfg.jobs = 4;
    Campaign par(parCfg);
    addLoadPoints(par, tinyBase(), {0.3, 0.4, 0.5});
    par.run();

    ASSERT_EQ(par.results().size(), seq.results().size());
    for (std::size_t i = 0; i < seq.results().size(); ++i) {
        EXPECT_EQ(par.results()[i].label, seq.results()[i].label);
        EXPECT_EQ(par.results()[i].first().eventsFired,
                  seq.results()[i].first().eventsFired);
        EXPECT_EQ(par.results()[i].first().meanIntervalNormMs,
                  seq.results()[i].first().meanIntervalNormMs);
    }
    campaign::ArtifactOptions options;
    options.name = "sweep";
    options.includeTiming = false;
    EXPECT_EQ(campaign::toJson(par, options),
              campaign::toJson(seq, options))
        << "aggregate artifact must not depend on the jobs count";
}

TEST(Sweep, ReplicationsAggregateAndRenderCi)
{
    CampaignConfig cfg;
    cfg.replications = 3;
    Campaign camp(cfg);
    addLoadPoints(camp, tinyBase(), {0.3});
    camp.run();

    const auto& summary = camp.results()[0];
    EXPECT_EQ(summary.reps.size(), 3u);
    EXPECT_EQ(summary.metric("mean_interval_norm_ms").n, 3u);

    const std::string text =
        resultsTable(camp.results(), true).toString();
    EXPECT_NE(text.find("d ci95"), std::string::npos) << text;
}

TEST(Sweep, TableSurfacesThroughputColumns)
{
    Campaign camp;
    addLoadPoints(camp, tinyBase(), {0.3});
    camp.run();
    const std::string text =
        resultsTable(camp.results(), false).toString();
    EXPECT_NE(text.find("wall (s)"), std::string::npos) << text;
    EXPECT_NE(text.find("Mev/s"), std::string::npos) << text;
    EXPECT_GT(camp.results()[0].first().eventsPerSec, 0.0);
}

} // namespace
