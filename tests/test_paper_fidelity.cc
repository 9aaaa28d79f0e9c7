/**
 * @file
 * Statistical paper-fidelity tests (ctest label: fidelity).
 *
 * A miniature of the paper's Figure 3 experiment - FIFO vs Virtual
 * Clock scheduling at loads 0.8 and 1.0, three seed replications per
 * point on the campaign engine - asserting the paper's *qualitative
 * claims* with statistical confidence rather than chasing exact
 * curves (EXPERIMENTS.md records where our absolute numbers sit):
 *
 *  - Virtual Clock holds sigma_d small (<= 1 ms normalised) and the
 *    mean delivery interval pinned at the 33 ms frame interval even
 *    at load 1.0 (Section 5.1).
 *  - FIFO jitter at saturation is much larger, with non-overlapping
 *    95% confidence intervals against Virtual Clock.
 *  - FIFO jitter grows with load.
 *
 * The per-stream telemetry series (obs::StreamTelemetry) backs the
 * per-stream claims: under Virtual Clock no individual stream hides
 * a large jitter behind a small aggregate.
 *
 * Kept out of the main test binary because each point simulates a
 * full 568-stream switch; the suite runs under the "fidelity" ctest
 * label (CI runs it in the Release job).
 */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "core/mediaworm.hh"

namespace {

using namespace mediaworm;

struct PointResult
{
    campaign::MetricSummary sigma; ///< stddev_interval_norm_ms
    campaign::MetricSummary d;     ///< mean_interval_norm_ms
    core::ExperimentResult rep0;
};

/** Runs one (scheduler, load) point: 3 replications, telemetry on. */
PointResult
runPoint(config::SchedulerKind scheduler, double load)
{
    core::ExperimentConfig cfg;
    cfg.router.scheduler = scheduler;
    cfg.traffic.inputLoad = load;
    cfg.traffic.realTimeFraction = 0.8;
    // Matches the bench/fig3 calibration recorded in EXPERIMENTS.md
    // (warmup 2, 6 measured frames, timeScale 0.1) so the numeric
    // bounds below line up with the measured values there.
    cfg.traffic.warmupFrames = 2;
    cfg.traffic.measuredFrames = 6;
    cfg.timeScale = 0.1;
    cfg.seed = 1;
    cfg.obs.telemetry = true;

    campaign::CampaignConfig ccfg;
    ccfg.jobs = 0; // All hardware threads.
    ccfg.replications = 3;
    campaign::Campaign camp(ccfg);
    camp.addPoint("point", cfg);
    const auto& results = camp.run();

    PointResult out;
    out.sigma = results[0].metric("stddev_interval_norm_ms");
    out.d = results[0].metric("mean_interval_norm_ms");
    out.rep0 = results[0].first();
    return out;
}

class PaperFidelity : public testing::Test
{
  protected:
    // One shared grid for every assertion; computed once.
    static void
    SetUpTestSuite()
    {
        vc08_ = new PointResult(
            runPoint(config::SchedulerKind::VirtualClock, 0.8));
        vc10_ = new PointResult(
            runPoint(config::SchedulerKind::VirtualClock, 1.0));
        fifo08_ = new PointResult(
            runPoint(config::SchedulerKind::Fifo, 0.8));
        fifo10_ = new PointResult(
            runPoint(config::SchedulerKind::Fifo, 1.0));
    }

    static void
    TearDownTestSuite()
    {
        delete vc08_;
        delete vc10_;
        delete fifo08_;
        delete fifo10_;
        vc08_ = vc10_ = fifo08_ = fifo10_ = nullptr;
    }

    static PointResult* vc08_;
    static PointResult* vc10_;
    static PointResult* fifo08_;
    static PointResult* fifo10_;
};

PointResult* PaperFidelity::vc08_ = nullptr;
PointResult* PaperFidelity::vc10_ = nullptr;
PointResult* PaperFidelity::fifo08_ = nullptr;
PointResult* PaperFidelity::fifo10_ = nullptr;

TEST_F(PaperFidelity, VirtualClockBoundsJitterAtFullLoad)
{
    // Section 5.1 / Fig. 3: Virtual Clock keeps the deviation small
    // through load 1.0 (paper: fractions of a ms; our measured value
    // is <= 0.64 ms, see EXPERIMENTS.md).
    EXPECT_LE(vc10_->sigma.mean, 1.0)
        << "VC sigma_d at load 1.0: " << vc10_->sigma.mean << " ms";
    EXPECT_LE(vc08_->sigma.mean, 1.0);
}

TEST_F(PaperFidelity, VirtualClockPinsDeliveryIntervalAtFrameRate)
{
    // d stays at the 33 ms frame interval: streams neither starve
    // nor drift even at saturation.
    EXPECT_NEAR(vc08_->d.mean, 33.0, 0.5);
    EXPECT_NEAR(vc10_->d.mean, 33.0, 0.5);
}

TEST_F(PaperFidelity, FifoJitterExceedsVirtualClockAtFullLoad)
{
    // The paper's headline contrast. Statistical form: the 95% CIs
    // of sigma_d at load 1.0 must not even overlap.
    EXPECT_GT(fifo10_->sigma.mean, vc10_->sigma.mean);
    EXPECT_GT(fifo10_->sigma.lo(), vc10_->sigma.hi())
        << "FIFO CI [" << fifo10_->sigma.lo() << ", "
        << fifo10_->sigma.hi() << "] overlaps VC CI ["
        << vc10_->sigma.lo() << ", " << vc10_->sigma.hi() << "]";
}

TEST_F(PaperFidelity, FifoJitterGrowsWithLoad)
{
    EXPECT_GT(fifo10_->sigma.mean, fifo08_->sigma.mean);
}

TEST_F(PaperFidelity, PerStreamTelemetryBacksTheAggregates)
{
    // The aggregate claims hold per stream: under Virtual Clock at
    // load 1.0 even the worst stream's sigma_d stays bounded, and
    // every stream's overall d sits at the frame interval. This is
    // what the end-of-run aggregates cannot show (a scheduler could
    // starve one stream while the mean stays flat).
    ASSERT_NE(vc10_->rep0.observations, nullptr);
    ASSERT_TRUE(vc10_->rep0.observations->telemetry.has_value());
    const obs::TelemetryReport& t = *vc10_->rep0.observations->telemetry;
    ASSERT_GT(t.timeScale, 0.0);
    ASSERT_FALSE(t.streams.empty());

    // Empirically ~2.1 ms: the single worst stream out of ~570 with
    // only ~6 measured intervals has a fat small-sample tail, but it
    // still sits well under FIFO's *aggregate* sigma_d (4.4 ms).
    EXPECT_LE(t.worstStddevMs / t.timeScale, 3.0)
        << "worst stream " << t.worstStream.value() << " sigma_d";

    std::size_t with_series = 0;
    for (const obs::StreamSeries& s : t.streams) {
        if (s.intervalCount < 2)
            continue;
        ++with_series;
        EXPECT_FALSE(s.samples.empty());
        EXPECT_NEAR(s.meanIntervalMs / t.timeScale, 33.0, 1.5)
            << "stream " << s.stream.value();
    }
    // Nearly all offered streams deliver enough frames to measure.
    EXPECT_GT(with_series, t.streams.size() / 2);

    // FIFO at load 1.0: the worst stream is strictly worse than the
    // Virtual Clock worst stream.
    ASSERT_NE(fifo10_->rep0.observations, nullptr);
    ASSERT_TRUE(fifo10_->rep0.observations->telemetry.has_value());
    const obs::TelemetryReport& f =
        *fifo10_->rep0.observations->telemetry;
    EXPECT_GT(f.worstStddevMs, t.worstStddevMs);
}

} // namespace
