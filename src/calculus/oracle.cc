#include "calculus/oracle.hh"

#include <algorithm>
#include <cmath>

#include "calculus/route_model.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::calculus {

namespace {

/**
 * Largest GoP frame-size multiplier of the IBBPBB... pattern in
 * traffic/frame_source.cc (the I frame). The pattern is normalised
 * to mean 1.0, and its worst k-frame window never exceeds
 * kGopPeakMultiplier + (k - 1) x mean, so a burst covering one I
 * frame needs no extra sustained-rate margin for the pattern itself.
 */
constexpr double kGopPeakMultiplier = 2.4;

/** True for disciplines whose saturated best-effort stamps give
 *  real-time traffic strict priority. */
bool
strictPriority(config::SchedulerKind kind)
{
    return kind == config::SchedulerKind::VirtualClock
        || kind == config::SchedulerKind::WeightedRoundRobin;
}

/** One analysed flow: a real-time stream or a best-effort
 *  source->destination pair-flow. */
struct Flow
{
    ArrivalCurve source;
    double stampRateFlitsPerUs = 0.0; ///< 1/Vtick; 0 for best-effort.
    int vcLane = -1;
    bool rt = false;
    int streamIndex = -1; ///< Into the input stream table; -1 for BE.
    int firstHop = 0;     ///< Hop h's slot is Tfa::hopSlot[firstHop + h].
    int hops = 0;
    double totalUs = 0.0; ///< TFA sum of the per-hop sojourns.
};

/**
 * One member of a contention point: a flow at one of its hops. A
 * pass reads the competitor sums refresh() left here and writes the
 * flow's new entry delay.
 */
struct Slot
{
    int flow = 0;
    int group = 0;        ///< Into Tfa::groups.
    double entryUs = 0.0; ///< TFA delay bound accumulated before here.
    ArrivalCurve env;     ///< Envelope after entryUs of jitter.
    /** Sum over every other member of the slot's group: its VC lane
     *  for real-time, the other pair-flows for best-effort. */
    ArrivalCurve peers;
};

/** The real-time members of one point that share a VC lane, or all
 *  of its best-effort members. */
struct Group
{
    int point = 0;
    int slotBegin = 0;
    int slotEnd = 0;
    bool rt = false;
    double minStampRate = 0.0; ///< Smallest member stamp rate (RT).
    ArrivalCurve total;        ///< Sum of the members' envelopes.
    ArrivalCurve otherLanes;   ///< Sum over the point's other RT lanes.
};

/** A contention point; its groups are contiguous, real-time lanes in
 *  ascending lane order, best-effort last. */
struct Point
{
    ContentionPoint info;
    int groupBegin = 0;
    int groupEnd = 0;
    bool strict = false; ///< strictPriority(info.discipline).
    /** The stamp-rate curve applies: strict priority, lane-exact VCs
     *  and per-lane stamp rates that fit the capacity. */
    bool stampBranch = false;
    ArrivalCurve rtTotal; ///< Sum over the real-time members.
    ArrivalCurve beTotal; ///< Sum over the best-effort members.
};

/** The envelope @p source has after @p cum_delay_us of upstream
 *  jitter: sigma grows by rho x delay (burstiness propagation). */
ArrivalCurve
envelopeAfter(const ArrivalCurve& source, double cum_delay_us)
{
    if (cum_delay_us >= kUnbounded)
        return {kUnbounded, source.rhoFlitsPerUs};
    return {source.sigmaFlits + source.rhoFlitsPerUs * cum_delay_us,
            source.rhoFlitsPerUs};
}

/**
 * The TFA/SFA state: a dense point table whose members are the
 * (flow, hop) slots, and each flow's hops as slot indices. A pass
 * costs O(sum of route lengths) and allocates nothing.
 */
struct Tfa
{
    std::vector<Flow> flows;
    std::vector<Point> points;
    std::vector<Group> groups;
    std::vector<Slot> slots;
    std::vector<int> hopSlot;

    Slot& slotAt(const Flow& f, int h)
    {
        return slots[static_cast<std::size_t>(
            hopSlot[static_cast<std::size_t>(f.firstHop + h)])];
    }

    /**
     * Rebuilds every slot's competitor sums from the entry delays.
     * "Every other member" is a prefix plus a suffix sum rather than
     * a total minus self: no cancellation, no inf - inf, and a sum
     * can only grow when another member's entry delay grows, so the
     * iteration stays monotone in floating point too.
     */
    void refresh()
    {
        for (Point& p : points) {
            p.rtTotal = {0.0, 0.0};
            p.beTotal = {0.0, 0.0};
            for (int g = p.groupBegin; g < p.groupEnd; ++g) {
                Group& grp = groups[static_cast<std::size_t>(g)];
                ArrivalCurve prefix{0.0, 0.0};
                for (int s = grp.slotBegin; s < grp.slotEnd; ++s) {
                    Slot& slot = slots[static_cast<std::size_t>(s)];
                    slot.env = envelopeAfter(
                        flows[static_cast<std::size_t>(slot.flow)]
                            .source,
                        slot.entryUs);
                    slot.peers = prefix;
                    prefix = aggregate(prefix, slot.env);
                }
                grp.total = prefix;
                ArrivalCurve suffix{0.0, 0.0};
                for (int s = grp.slotEnd - 1; s >= grp.slotBegin; --s) {
                    Slot& slot = slots[static_cast<std::size_t>(s)];
                    slot.peers = aggregate(slot.peers, suffix);
                    suffix = aggregate(suffix, slot.env);
                }
                if (grp.rt) {
                    grp.otherLanes = p.rtTotal;
                    p.rtTotal = aggregate(p.rtTotal, grp.total);
                } else {
                    p.beTotal = grp.total;
                }
            }
            ArrivalCurve suffix{0.0, 0.0};
            for (int g = p.groupEnd - 1; g >= p.groupBegin; --g) {
                Group& grp = groups[static_cast<std::size_t>(g)];
                if (!grp.rt)
                    continue;
                grp.otherLanes = aggregate(grp.otherLanes, suffix);
                suffix = aggregate(suffix, grp.total);
            }
        }
    }

    /**
     * The two candidate service curves @p slot's flow can claim at
     * its point, from the competitor sums of the last refresh():
     *
     *   [0] blind-multiplexing residual - capacity minus every
     *       competitor's envelope; under strict priority, best-effort
     *       competitors collapse to one non-preemptable blocking flit.
     *   [1] stamp-rate curve (strict-priority points, RT flows only) -
     *       the Virtual Clock lane drains at its stamp rate 1/Vtick
     *       whenever the stamp rates of all lanes at the point fit the
     *       capacity; the lane's FIFO is shared with its other
     *       members. none() when infeasible or not applicable.
     *
     * Both are valid guarantees; callers keep whichever bounds the
     * target's delay tighter.
     */
    void candidateCurves(const Slot& slot, ServiceCurve out[2]) const
    {
        const Group& grp = groups[static_cast<std::size_t>(slot.group)];
        const Point& p = points[static_cast<std::size_t>(grp.point)];
        const ContentionPoint& point = p.info;
        ArrivalCurve blind;
        if (grp.rt) {
            const ArrivalCurve rt_others =
                aggregate(slot.peers, grp.otherLanes);
            blind = p.strict ? aggregate(rt_others, {1.0, 0.0})
                             : aggregate(rt_others, p.beTotal);
        } else {
            blind = aggregate(p.rtTotal, slot.peers);
        }
        out[0] = residual(point.capacityFlitsPerUs, blind,
                          point.fixedLatencyUs);
        out[1] = ServiceCurve::none();
        if (!grp.rt || !p.stampBranch)
            return;
        // One blocked flit of another lane or class may be in service.
        out[1] = residual(grp.minStampRate, slot.peers,
                          point.fixedLatencyUs
                              + 1.0 / point.capacityFlitsPerUs);
    }

    /**
     * One Jacobi TFA pass: every flow's per-hop sojourn bounds
     * against the competitor sums of the last refresh(), each flow's
     * own entry delays propagating hop by hop. Returns whether any
     * entry delay or total changed.
     */
    bool pass()
    {
        bool changed = false;
        for (Flow& f : flows) {
            double total = 0.0;
            for (int h = 0; h < f.hops; ++h) {
                // Other flows see this entry delay only through the
                // sums of the next refresh().
                Slot& slot = slotAt(f, h);
                if (slot.entryUs != total) {
                    slot.entryUs = total;
                    changed = true;
                }
                if (total >= kUnbounded)
                    continue;
                ServiceCurve cand[2];
                candidateCurves(slot, cand);
                const ArrivalCurve entry =
                    envelopeAfter(f.source, total);
                total += std::min(delayBoundUs(entry, cand[0]),
                                  delayBoundUs(entry, cand[1]));
            }
            if (f.totalUs != total) {
                f.totalUs = total;
                changed = true;
            }
        }
        return changed;
    }

    /** SFA: flow @p f's per-hop curves convolved along its route
     *  ("pay bursts only once"), never worse than its TFA sum. */
    double boundOf(const Flow& f)
    {
        ServiceCurve e2e{kUnbounded, 0.0};
        for (int h = 0; h < f.hops; ++h) {
            const Slot& slot = slotAt(f, h);
            ServiceCurve cand[2];
            candidateCurves(slot, cand);
            const ServiceCurve chosen =
                delayBoundUs(slot.env, cand[0])
                        <= delayBoundUs(slot.env, cand[1])
                    ? cand[0]
                    : cand[1];
            e2e = convolve(e2e, chosen);
        }
        return std::min(delayBoundUs(f.source, e2e), f.totalUs);
    }
};

/** The report row of stream @p s with bound @p bound_us. */
StreamBound
streamBound(const traffic::Stream& s, const RouteModel& model,
            const ArrivalCurve& source, double bound_us)
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
    b.boundUs = bound_us;
    b.bounded = bound_us < kUnbounded;
    return b;
}

/** Sorts @p report's rows by stream id and fills its totals. */
void
finishReport(BoundsReport& report)
{
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
}

} // namespace

StreamEnvelope
rtStreamEnvelope(const config::RouterConfig& router,
                 const config::TrafficConfig& traffic)
{
    // Header flits carry no payload (frame_source.cc).
    const double flit_bytes = router.flitSizeBits / 8.0;
    const double payload_bytes =
        (traffic.messageFlits - 1) * flit_bytes;
    const double interval_us =
        sim::toMicroseconds(traffic.frameInterval);
    MW_ASSERT(payload_bytes > 0.0 && interval_us > 0.0);

    double worst_bytes = traffic.frameBytesMean;
    double margin = 0.0;
    switch (traffic.realTimeKind) {
      case config::RealTimeKind::Cbr:
        break;
      case config::RealTimeKind::Vbr:
        worst_bytes += kBurstSigmas * traffic.frameBytesStddev;
        margin = traffic.frameBytesStddev / traffic.frameBytesMean;
        break;
      case config::RealTimeKind::MpegGop:
        worst_bytes =
            (traffic.frameBytesMean
             + kBurstSigmas * traffic.frameBytesStddev)
            * kGopPeakMultiplier;
        margin = traffic.frameBytesStddev / traffic.frameBytesMean;
        break;
    }

    const double mean_messages =
        std::ceil(traffic.frameBytesMean / payload_bytes);
    const double max_messages =
        std::max(1.0, std::ceil(worst_bytes / payload_bytes));

    StreamEnvelope env;
    env.maxMessageFlits = traffic.messageFlits;
    env.meanRateFlitsPerUs =
        mean_messages * traffic.messageFlits / interval_us;
    env.curve = {max_messages * traffic.messageFlits,
                 env.meanRateFlitsPerUs * (1.0 + margin)};
    return env;
}

const StreamBound*
BoundsReport::find(sim::StreamId id) const
{
    const auto it = std::lower_bound(
        streams.begin(), streams.end(), id,
        [](const StreamBound& b, sim::StreamId key) {
            return b.stream < key;
        });
    if (it == streams.end() || !(it->stream == id))
        return nullptr;
    return &*it;
}

BoundsReport
computeBounds(const config::RouterConfig& router,
              const config::TrafficConfig& traffic,
              const config::NetworkConfig& net,
              const std::vector<traffic::Stream>& streams,
              const OracleConfig& oracle)
{
    BoundsReport report;
    if (streams.empty())
        return report;

    const StreamEnvelope envelope =
        rtStreamEnvelope(router, traffic);
    const RouteModel model(router, net);
    const int num_nodes = model.numNodes();
    report.streams.reserve(streams.size());

    // Adaptive routing has no static path to analyse: report every
    // stream unbounded (hop counts stay exact - minimal routing).
    if (!model.analyzable()) {
        for (const traffic::Stream& s : streams)
            report.streams.push_back(
                streamBound(s, model, envelope.curve, kUnbounded));
        finishReport(report);
        return report;
    }

    // Contention-point table: who meets whom, where, indexed by
    // ContentionPoint::index (points no route visits stay empty).
    Tfa tfa;
    tfa.points.resize(static_cast<std::size_t>(model.numPoints()));
    std::vector<int> hop_point; // Point and flow of every flow's hops.
    std::vector<int> hop_flow;
    auto add_flow = [&](Flow f, int src, int dst) {
        const Route route = model.routeOf(src, dst);
        f.firstHop = static_cast<int>(hop_point.size());
        f.hops = static_cast<int>(route.size());
        tfa.flows.push_back(f);
        for (const ContentionPoint& cp : route) {
            Point& point = tfa.points[static_cast<std::size_t>(cp.index)];
            point.info = cp;
            point.strict = strictPriority(cp.discipline);
            hop_point.push_back(cp.index);
            hop_flow.push_back(static_cast<int>(tfa.flows.size()) - 1);
        }
    };

    for (std::size_t i = 0; i < streams.size(); ++i) {
        const traffic::Stream& s = streams[i];
        Flow f;
        f.source = envelope.curve;
        f.stampRateFlitsPerUs = static_cast<double>(sim::kMicrosecond)
            / static_cast<double>(s.vtick);
        f.vcLane = s.vcLane;
        f.rt = true;
        f.streamIndex = static_cast<int>(i);
        add_flow(f, s.src.value(), s.dst.value());
    }

    // Best-effort component: each node injects at be_load x link rate
    // with uniform destinations; model it as (n - 1) pair-flows per
    // node, each carrying the per-destination rate share but the full
    // message burst (the source may aim any burst anywhere).
    const double be_load =
        traffic.inputLoad * (1.0 - traffic.realTimeFraction);
    if (be_load > 0.0 && num_nodes >= 2) {
        const double pair_rate = be_load
            * linkCapacityFlitsPerUs(router)
            / static_cast<double>(num_nodes - 1);
        for (int src = 0; src < num_nodes; ++src) {
            for (int dst = 0; dst < num_nodes; ++dst) {
                if (dst == src)
                    continue;
                Flow f;
                f.source = {static_cast<double>(traffic.beMessageFlits),
                            pair_rate};
                add_flow(f, src, dst);
            }
        }
    }

    // Slots in point order, each point's grouped by key - the VC
    // lane for real-time members, best-effort last - with flows in
    // order within a group: a counting sort over (point, key) buckets.
    // A comparison sort of the same (point, key, hop) triples costs
    // ~7 ms more on torus8x8 (BM_ComputeBounds, EXPERIMENTS.md).
    int be_key = 0;
    for (const traffic::Stream& s : streams) {
        MW_ASSERT(s.vcLane >= 0);
        be_key = std::max(be_key, s.vcLane + 1);
    }
    const std::size_t keys = static_cast<std::size_t>(be_key) + 1;
    auto bucket_of = [&](std::size_t g) {
        const Flow& f =
            tfa.flows[static_cast<std::size_t>(hop_flow[g])];
        return static_cast<std::size_t>(hop_point[g]) * keys
            + static_cast<std::size_t>(f.rt ? f.vcLane : be_key);
    };
    std::vector<int> bucket_start(tfa.points.size() * keys + 1, 0);
    for (std::size_t g = 0; g < hop_point.size(); ++g)
        ++bucket_start[bucket_of(g) + 1];
    for (std::size_t b = 1; b < bucket_start.size(); ++b)
        bucket_start[b] += bucket_start[b - 1];
    std::vector<int> order(hop_point.size());
    {
        std::vector<int> next(bucket_start.begin(), bucket_start.end() - 1);
        for (std::size_t g = 0; g < hop_point.size(); ++g)
            order[static_cast<std::size_t>(next[bucket_of(g)]++)] =
                static_cast<int>(g);
    }

    const bool lane_exact = model.vcClasses() == 1;
    tfa.slots.resize(order.size());
    tfa.hopSlot.resize(order.size());
    for (std::size_t p = 0; p < tfa.points.size(); ++p) {
        Point& point = tfa.points[p];
        point.groupBegin = static_cast<int>(tfa.groups.size());
        // Stamp-rate feasibility: each lane's largest member stamp
        // rate, summed in ascending lane order.
        double stamp_sum = 0.0;
        for (std::size_t b = p * keys; b < (p + 1) * keys; ++b) {
            if (bucket_start[b] == bucket_start[b + 1])
                continue;
            Group grp;
            grp.point = static_cast<int>(p);
            grp.slotBegin = bucket_start[b];
            grp.slotEnd = bucket_start[b + 1];
            grp.rt = b - p * keys != static_cast<std::size_t>(be_key);
            grp.minStampRate = kUnbounded;
            double lane_rate = 0.0;
            for (int k = grp.slotBegin; k < grp.slotEnd; ++k) {
                const int g = order[static_cast<std::size_t>(k)];
                Slot& slot = tfa.slots[static_cast<std::size_t>(k)];
                slot.flow = hop_flow[static_cast<std::size_t>(g)];
                slot.group = static_cast<int>(tfa.groups.size());
                tfa.hopSlot[static_cast<std::size_t>(g)] = k;
                const double rate =
                    tfa.flows[static_cast<std::size_t>(slot.flow)]
                        .stampRateFlitsPerUs;
                grp.minStampRate = std::min(grp.minStampRate, rate);
                lane_rate = std::max(lane_rate, rate);
            }
            if (grp.rt)
                stamp_sum += lane_rate;
            tfa.groups.push_back(grp);
        }
        point.groupEnd = static_cast<int>(tfa.groups.size());
        point.stampBranch = point.strict && lane_exact
            && !(stamp_sum > point.info.capacityFlitsPerUs);
    }

    // TFA burstiness propagation: Jacobi passes to a fixed point.
    // Routes with cycles (DOR rings on a torus) may converge slowly
    // or not at all; an iteration still moving at the pass cap
    // proves nothing, so every stream is then reported unbounded.
    const int cap = oracle.tfaPasses > 0 ? oracle.tfaPasses
                                         : kDefaultTfaPasses;
    report.tfaConverged = false;
    while (report.tfaPasses < cap) {
        tfa.refresh();
        ++report.tfaPasses;
        if (!tfa.pass()) {
            report.tfaConverged = true;
            break;
        }
    }

    // Final per-stream bounds. The last pass changed nothing, so the
    // competitor sums of its refresh() describe the fixed point.
    for (const Flow& f : tfa.flows) {
        if (!f.rt)
            continue;
        report.streams.push_back(streamBound(
            streams[static_cast<std::size_t>(f.streamIndex)], model,
            f.source,
            report.tfaConverged ? tfa.boundOf(f) : kUnbounded));
    }
    finishReport(report);
    return report;
}

} // namespace mediaworm::calculus
