#include "reference_oracle.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "calculus/route_model.hh"
#include "sim/time.hh"

namespace mediaworm::reference {

using calculus::ArrivalCurve;
using calculus::BoundsReport;
using calculus::ContentionPoint;
using calculus::kUnbounded;
using calculus::Route;
using calculus::ServiceCurve;
using calculus::StreamBound;

namespace {

bool
strictPriority(config::SchedulerKind kind)
{
    return kind == config::SchedulerKind::VirtualClock
        || kind == config::SchedulerKind::WeightedRoundRobin;
}

struct Flow
{
    Route route;
    ArrivalCurve source;
    double stampRateFlitsPerUs = 0.0;
    int vcLane = -1;
    bool laneExact = true;
    bool rt = false;
    int streamIndex = -1;

    /** cum[h]: delay bound accumulated before hop h. */
    std::vector<double> cum;
};

struct PointData
{
    ContentionPoint info;
    std::vector<std::pair<int, int>> members;
};

ArrivalCurve
envelopeAfter(const Flow& f, double cum_delay_us)
{
    if (cum_delay_us >= kUnbounded)
        return {kUnbounded, f.source.rhoFlitsPerUs};
    return {f.source.sigmaFlits
                + f.source.rhoFlitsPerUs * cum_delay_us,
            f.source.rhoFlitsPerUs};
}

/** [0] blind residual, [1] stamp-rate curve, from a scan over every
 *  member of the point. */
void
candidateCurves(const std::vector<Flow>& flows, int i,
                const PointData& pd, ServiceCurve out[2])
{
    const ContentionPoint& point = pd.info;
    const Flow& target = flows[i];
    const bool drop_be =
        strictPriority(point.discipline) && target.rt;

    ArrivalCurve blind{0.0, 0.0};
    ArrivalCurve lane_others{0.0, 0.0};
    for (const auto& [j, h] : pd.members) {
        if (j == i)
            continue;
        const Flow& other = flows[j];
        if (drop_be && !other.rt)
            continue;
        const ArrivalCurve env = envelopeAfter(other, other.cum[h]);
        blind = aggregate(blind, env);
        if (drop_be && other.rt && other.vcLane == target.vcLane)
            lane_others = aggregate(lane_others, env);
    }
    if (drop_be)
        blind = aggregate(blind, {1.0, 0.0});

    out[0] = residual(point.capacityFlitsPerUs, blind,
                      point.fixedLatencyUs);
    out[1] = ServiceCurve::none();
    if (!drop_be || !target.laneExact)
        return;

    std::map<int, double> lane_rate_max;
    double lane_rate_min = target.stampRateFlitsPerUs;
    for (const auto& [j, h] : pd.members) {
        const Flow& other = flows[j];
        if (!other.rt)
            continue;
        double& rate = lane_rate_max[other.vcLane];
        rate = std::max(rate, other.stampRateFlitsPerUs);
        if (other.vcLane == target.vcLane)
            lane_rate_min =
                std::min(lane_rate_min, other.stampRateFlitsPerUs);
    }
    double stamp_sum = 0.0;
    for (const auto& [lane, rate] : lane_rate_max)
        stamp_sum += rate;
    if (stamp_sum > point.capacityFlitsPerUs)
        return;
    out[1] = residual(lane_rate_min, lane_others,
                      point.fixedLatencyUs
                          + 1.0 / point.capacityFlitsPerUs);
}

double
sojournAt(const std::vector<Flow>& flows, int i, const PointData& pd,
          double entry_delay_us)
{
    if (entry_delay_us >= kUnbounded)
        return kUnbounded;
    ServiceCurve cand[2];
    candidateCurves(flows, i, pd, cand);
    const ArrivalCurve entry =
        envelopeAfter(flows[i], entry_delay_us);
    return std::min(delayBoundUs(entry, cand[0]),
                    delayBoundUs(entry, cand[1]));
}

StreamBound
boundOf(const traffic::Stream& s, const calculus::RouteModel& model,
        const ArrivalCurve& source, double bound)
{
    StreamBound b;
    b.stream = s.id;
    b.src = s.src;
    b.dst = s.dst;
    b.hops = model.routerHops(s.src.value(), s.dst.value());
    b.sigmaFlits = source.sigmaFlits;
    b.rhoFlitsPerUs = source.rhoFlitsPerUs;
    b.reservedFlitsPerUs = static_cast<double>(sim::kMicrosecond)
        / static_cast<double>(s.vtick);
    b.boundUs = bound;
    b.bounded = bound < kUnbounded;
    return b;
}

} // namespace

ReferenceBounds
computeBounds(const config::RouterConfig& router,
              const config::TrafficConfig& traffic,
              const config::NetworkConfig& net,
              const std::vector<traffic::Stream>& streams,
              const calculus::OracleConfig& oracle)
{
    ReferenceBounds out;
    BoundsReport& report = out.report;
    out.converged = true;
    if (streams.empty())
        return out;

    const calculus::StreamEnvelope envelope =
        calculus::rtStreamEnvelope(router, traffic);
    const calculus::RouteModel model(router, net);
    const int num_nodes = model.numNodes();

    if (!model.analyzable()) {
        for (const traffic::Stream& s : streams)
            report.streams.push_back(
                boundOf(s, model, envelope.curve, kUnbounded));
    } else {
        const bool lane_exact = model.vcClasses() == 1;
        std::vector<Flow> flows;
        for (std::size_t i = 0; i < streams.size(); ++i) {
            const traffic::Stream& s = streams[i];
            Flow f;
            f.route = model.routeOf(s.src.value(), s.dst.value());
            f.source = envelope.curve;
            f.stampRateFlitsPerUs =
                static_cast<double>(sim::kMicrosecond)
                / static_cast<double>(s.vtick);
            f.vcLane = s.vcLane;
            f.laneExact = lane_exact;
            f.rt = true;
            f.streamIndex = static_cast<int>(i);
            flows.push_back(std::move(f));
        }
        const double be_load =
            traffic.inputLoad * (1.0 - traffic.realTimeFraction);
        if (be_load > 0.0 && num_nodes >= 2) {
            const double pair_rate = be_load
                * calculus::linkCapacityFlitsPerUs(router)
                / static_cast<double>(num_nodes - 1);
            for (int src = 0; src < num_nodes; ++src) {
                for (int dst = 0; dst < num_nodes; ++dst) {
                    if (dst == src)
                        continue;
                    Flow f;
                    f.route = model.routeOf(src, dst);
                    f.source = {
                        static_cast<double>(traffic.beMessageFlits),
                        pair_rate};
                    flows.push_back(std::move(f));
                }
            }
        }

        std::map<int, PointData> points;
        std::size_t max_route_len = 0;
        for (std::size_t i = 0; i < flows.size(); ++i) {
            Flow& f = flows[i];
            max_route_len = std::max(max_route_len, f.route.size());
            f.cum.assign(f.route.size() + 1, 0.0);
            for (std::size_t h = 0; h < f.route.size(); ++h) {
                PointData& pd = points[f.route[h].key];
                pd.info = f.route[h];
                pd.members.emplace_back(static_cast<int>(i),
                                        static_cast<int>(h));
            }
        }

        // Gauss-Seidel TFA for a fixed pass count; the last iterate
        // stands even when it is still moving.
        const int passes = oracle.tfaPasses > 0
            ? oracle.tfaPasses
            : static_cast<int>(max_route_len) + 1;
        out.converged = false;
        for (int pass = 0; pass < passes; ++pass) {
            ++out.passes;
            bool changed = false;
            for (std::size_t i = 0; i < flows.size(); ++i) {
                Flow& f = flows[i];
                double total = 0.0;
                for (std::size_t h = 0; h < f.route.size(); ++h) {
                    const PointData& pd = points.at(f.route[h].key);
                    total += sojournAt(flows, static_cast<int>(i), pd,
                                       total);
                    if (f.cum[h + 1] != total) {
                        f.cum[h + 1] = total;
                        changed = true;
                    }
                }
            }
            if (!changed) {
                out.converged = true;
                break;
            }
        }

        // SFA convolution, never worse than the TFA per-hop sum.
        for (std::size_t i = 0; i < flows.size(); ++i) {
            const Flow& f = flows[i];
            if (!f.rt)
                continue;
            ServiceCurve e2e{kUnbounded, 0.0};
            for (std::size_t h = 0; h < f.route.size(); ++h) {
                const PointData& pd = points.at(f.route[h].key);
                ServiceCurve cand[2];
                candidateCurves(flows, static_cast<int>(i), pd, cand);
                const ArrivalCurve entry = envelopeAfter(f, f.cum[h]);
                const ServiceCurve chosen =
                    delayBoundUs(entry, cand[0])
                            <= delayBoundUs(entry, cand[1])
                        ? cand[0]
                        : cand[1];
                e2e = convolve(e2e, chosen);
            }
            const double bound =
                std::min(delayBoundUs(f.source, e2e),
                         f.cum[f.route.size()]);
            report.streams.push_back(
                boundOf(streams[static_cast<std::size_t>(f.streamIndex)],
                        model, f.source, bound));
        }
    }

    std::sort(report.streams.begin(), report.streams.end(),
              [](const StreamBound& a, const StreamBound& b) {
                  return a.stream < b.stream;
              });
    for (const StreamBound& b : report.streams) {
        if (b.bounded)
            report.maxBoundUs = std::max(report.maxBoundUs, b.boundUs);
        else
            ++report.unboundedStreams;
    }
    return out;
}

} // namespace mediaworm::reference
