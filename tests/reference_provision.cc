#include "reference_provision.hh"

#include <algorithm>
#include <utility>

#include "calculus/route_model.hh"
#include "sim/random.hh"
#include "sim/time.hh"
#include "traffic/traffic_mix.hh"

namespace mediaworm::reference {

std::vector<ProvisionRow>
provisionGrid(const config::RouterConfig& router,
              const config::TrafficConfig& traffic,
              const config::NetworkConfig& net, std::uint64_t seed,
              double time_scale, const calculus::OracleConfig& oracle)
{
    config::TrafficConfig scaled = traffic;
    scaled.frameBytesMean *= time_scale;
    scaled.frameBytesStddev *= time_scale;
    scaled.frameInterval = static_cast<sim::Tick>(
        static_cast<double>(scaled.frameInterval) * time_scale);

    const double capacity = calculus::linkCapacityFlitsPerUs(router);
    const double base_stamp_rate =
        static_cast<double>(sim::kMicrosecond)
        / static_cast<double>(scaled.streamVtick(router.flitSizeBits));
    const int steps = 24;

    std::vector<ProvisionRow> grid;
    for (const int num_vcs : {4, 8, 16, 32, 64}) {
        const traffic::VcPartition partition =
            traffic::partitionVcs(num_vcs, scaled.realTimeFraction);
        if (partition.rtCount < 1)
            continue;
        const double factor_max = std::max(
            1.0, 0.95 * capacity
                     / (static_cast<double>(partition.rtCount)
                        * base_stamp_rate));
        ProvisionRow row;
        row.numVcs = num_vcs;
        for (int k = 0; k <= steps; ++k) {
            config::RouterConfig r = router;
            r.numVcs = num_vcs;
            config::TrafficConfig t = scaled;
            t.reservedRateFactor = 1.0
                + (factor_max - 1.0) * static_cast<double>(k)
                    / static_cast<double>(steps);

            // runExperiment()'s RNG derivation: network split, then mix.
            sim::Rng root(seed);
            sim::Rng net_rng = root.split();
            (void)net_rng;
            sim::Rng mix_rng = root.split();
            const traffic::MixPlan plan = traffic::planMix(
                r, t, net.totalNodes(r.numPorts), mix_rng);
            calculus::OracleConfig ocfg = oracle;
            ocfg.enabled = true;
            const calculus::BoundsReport report =
                calculus::computeBounds(r, t, net, plan.streams, ocfg);

            ProvisionCell cell;
            cell.factor = t.reservedRateFactor;
            cell.worstUs = report.allBounded() ? report.maxBoundUs
                                               : calculus::kUnbounded;
            cell.streams = static_cast<int>(report.streams.size());
            row.cells.push_back(cell);
        }
        grid.push_back(std::move(row));
    }
    return grid;
}

calculus::ProvisionResult
scanProvision(const std::vector<ProvisionRow>& grid, double sla_us)
{
    calculus::ProvisionResult result;
    for (const ProvisionRow& row : grid) {
        for (const ProvisionCell& c : row.cells) {
            result.rtStreams = std::max(result.rtStreams, c.streams);
            if (c.worstUs > sla_us)
                continue;
            const bool better = !result.feasible
                || c.factor < result.reservedRateFactor
                || (c.factor == result.reservedRateFactor
                    && c.worstUs < result.worstBoundUs);
            if (better) {
                result.feasible = true;
                result.numVcs = row.numVcs;
                result.reservedRateFactor = c.factor;
                result.worstBoundUs = c.worstUs;
            }
            break;
        }
    }
    return result;
}

} // namespace mediaworm::reference
