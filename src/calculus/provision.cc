#include "calculus/provision.hh"

#include <algorithm>
#include <cstdio>

#include "calculus/route_model.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/time.hh"
#include "traffic/traffic_mix.hh"

namespace mediaworm::calculus {

namespace {

/** VC counts the search tries. */
constexpr int kVcCounts[] = {4, 8, 16, 32, 64};

/** Intervals of the reserved-rate grid: kRateSteps + 1 factors. */
constexpr int kRateSteps = 24;

/** Cap on the summed lane stamp rates as a fraction of link capacity,
 *  keeping headroom for best-effort progress. */
constexpr double kMaxStampLoad = 0.95;

/** One evaluated allocation. */
struct Candidate
{
    int numVcs = 0;
    double factor = 1.0;
    double worstUs = kUnbounded;
    int streams = 0;
};

/**
 * Plans the mix for @p seed exactly as runExperiment() does (same
 * RNG derivation: the network split is drawn first, then the mix
 * split) and returns the oracle's worst bound.
 */
Candidate
evaluate(config::RouterConfig router, config::TrafficConfig traffic,
         const config::NetworkConfig& net, std::uint64_t seed,
         int num_vcs, double factor, const OracleConfig& oracle)
{
    router.numVcs = num_vcs;
    traffic.reservedRateFactor = factor;

    sim::Rng root(seed);
    sim::Rng net_rng = root.split();
    (void)net_rng;
    sim::Rng mix_rng = root.split();
    const traffic::MixPlan plan = traffic::planMix(
        router, traffic, net.totalNodes(router.numPorts), mix_rng);

    OracleConfig ocfg = oracle;
    ocfg.enabled = true;
    const BoundsReport report =
        computeBounds(router, traffic, net, plan.streams, ocfg);

    Candidate c;
    c.numVcs = num_vcs;
    c.factor = factor;
    c.streams = static_cast<int>(report.streams.size());
    c.worstUs =
        report.allBounded() ? report.maxBoundUs : kUnbounded;
    return c;
}

} // namespace

std::string
ProvisionResult::describe() const
{
    char buf[160];
    if (!feasible) {
        std::snprintf(buf, sizeof(buf),
                      "infeasible: no allocation met the SLA "
                      "(%d streams)", rtStreams);
        return buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "numVcs=%d reservedRateFactor=%.3f "
                  "worstBound=%.1fus (%d streams)",
                  numVcs, reservedRateFactor, worstBoundUs,
                  rtStreams);
    return buf;
}

ProvisionResult
provision(const config::RouterConfig& router,
          const config::TrafficConfig& traffic,
          const config::NetworkConfig& net, std::uint64_t seed,
          double time_scale, const ProvisionRequest& request)
{
    MW_ASSERT(request.slaUs > 0.0);
    MW_ASSERT(time_scale > 0.0 && time_scale <= 1.0);

    // Same workload compression runExperiment() applies.
    config::TrafficConfig scaled = traffic;
    scaled.frameBytesMean *= time_scale;
    scaled.frameBytesStddev *= time_scale;
    scaled.frameInterval = static_cast<sim::Tick>(
        static_cast<double>(scaled.frameInterval) * time_scale);

    const double capacity = linkCapacityFlitsPerUs(router);
    const double base_stamp_rate =
        static_cast<double>(sim::kMicrosecond)
        / static_cast<double>(
              scaled.streamVtick(router.flitSizeBits));

    ProvisionResult result;
    for (const int num_vcs : kVcCounts) {
        // Stamp-rate feasibility caps the reservation scale: in the
        // worst case every real-time lane of the partition is present
        // at a contention point.
        const traffic::VcPartition partition =
            traffic::partitionVcs(num_vcs, scaled.realTimeFraction);
        if (partition.rtCount < 1)
            continue;
        const double factor_max = std::max(
            1.0, kMaxStampLoad * capacity
                     / (static_cast<double>(partition.rtCount)
                        * base_stamp_rate));
        const auto at = [&](int k) {
            const double factor = 1.0
                + (factor_max - 1.0) * static_cast<double>(k)
                    / static_cast<double>(kRateSteps);
            Candidate c = evaluate(router, scaled, net, seed, num_vcs,
                                   factor, request.oracle);
            result.rtStreams = std::max(result.rtStreams, c.streams);
            return c;
        };

        // The bound is non-increasing in the factor (provision.hh), so
        // a miss at the largest factor rules this VC count out. Else
        // bisect, factor 1 first, for the least meeting grid point:
        // lo misses (-1: none tried), hi is best and meets.
        Candidate best = at(kRateSteps);
        if (best.worstUs > request.slaUs)
            continue;
        int lo = -1;
        int hi = kRateSteps;
        int probe = 0;
        while (hi - lo > 1) {
            const Candidate c = at(probe);
            if (c.worstUs <= request.slaUs) {
                best = c;
                hi = probe;
            } else {
                lo = probe;
            }
            probe = lo + (hi - lo) / 2;
        }

        const bool better = !result.feasible
            || best.factor < result.reservedRateFactor
            || (best.factor == result.reservedRateFactor
                && best.worstUs < result.worstBoundUs);
        if (better) {
            result.feasible = true;
            result.numVcs = best.numVcs;
            result.reservedRateFactor = best.factor;
            result.worstBoundUs = best.worstUs;
        }
    }
    return result;
}

} // namespace mediaworm::calculus
