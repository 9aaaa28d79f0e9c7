#include "traffic/traffic_mix.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::traffic {

namespace {

/**
 * Fills @p perm with a uniformly random fixed-point-free permutation
 * (rejection-sampled Fisher-Yates; acceptance ~1/e independent of n).
 */
void
randomDerangement(std::vector<int>& perm, sim::Rng& rng)
{
    const int n = static_cast<int>(perm.size());
    MW_ASSERT(n >= 2);
    bool ok = false;
    while (!ok) {
        for (int i = 0; i < n; ++i)
            perm[static_cast<std::size_t>(i)] = i;
        for (int i = n - 1; i > 0; --i) {
            const auto j = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(i) + 1));
            std::swap(perm[static_cast<std::size_t>(i)],
                      perm[static_cast<std::size_t>(j)]);
        }
        ok = true;
        for (int i = 0; i < n; ++i) {
            if (perm[static_cast<std::size_t>(i)] == i) {
                ok = false;
                break;
            }
        }
    }
}

} // namespace

VcPartition
partitionVcs(int num_vcs, double rt_fraction)
{
    MW_ASSERT(num_vcs >= 1);
    VcPartition part;
    int rt = static_cast<int>(
        std::lround(rt_fraction * static_cast<double>(num_vcs)));
    if (rt_fraction > 0.0)
        rt = std::max(rt, 1);
    if (rt_fraction < 1.0)
        rt = std::min(rt, num_vcs - 1);
    rt = std::clamp(rt, 0, num_vcs);

    part.rtFirst = 0;
    part.rtCount = rt;
    part.beFirst = rt;
    part.beCount = num_vcs - rt;
    return part;
}

MixPlan
planMix(const config::RouterConfig& router,
        const config::TrafficConfig& traffic, int num_nodes,
        sim::Rng& rng)
{
    MW_ASSERT(num_nodes >= 2);
    MixPlan plan;
    plan.partition = partitionVcs(router.numVcs,
                                  traffic.realTimeFraction);

    const double rt_load = traffic.inputLoad * traffic.realTimeFraction;
    const double be_load = traffic.inputLoad - rt_load;
    const double stream_rate = traffic.streamRateMbps();
    const double link_rate = static_cast<double>(
        router.linkBandwidthMbps);

    // Streams each node must source so its injection link carries
    // the real-time share of the input load.
    const int streams_per_node = static_cast<int>(
        std::lround(rt_load * link_rate / stream_rate));
    plan.streamsPerNode = streams_per_node;
    plan.plannedRtLoad = static_cast<double>(streams_per_node)
        * stream_rate / link_rate;

    if (plan.partition.rtCount > 0) {
        // The paper's capacity arithmetic: a VC's bandwidth share is
        // link_rate / numVcs, so it can carry that many streams.
        plan.streamsPerVcCapacity = static_cast<int>(
            link_rate / static_cast<double>(router.numVcs)
            / stream_rate);
    }

    const sim::Tick vtick = traffic.streamVtick(router.flitSizeBits);
    const router::TrafficClass cls =
        traffic.realTimeKind == config::RealTimeKind::Cbr
        ? router::TrafficClass::Cbr
        : router::TrafficClass::Vbr;

    auto finish_stream = [&](Stream& stream) {
        stream.vtick = vtick;
        stream.frameInterval = traffic.frameInterval;
        stream.startOffset = static_cast<sim::Tick>(rng.uniformInt(
            static_cast<std::uint64_t>(traffic.frameInterval)));
        plan.streams.push_back(stream);
    };

    // partitionVcs keeps a best-effort VC for any fraction below 1,
    // so one VC leaves the streams none.
    if (streams_per_node > 0 && plan.partition.rtCount == 0) {
        sim::fatal("traffic mix: real-time fraction %g needs a "
                   "real-time and a best-effort VC, but numVcs is %d",
                   traffic.realTimeFraction, router.numVcs);
    }

    int next_id = 0;
    if (traffic.streamPlacement == config::StreamPlacement::Balanced) {
        // One random derangement per round: every node sources and
        // sinks exactly one stream per round, and the round's lane
        // rotates through the real-time partition, so no output
        // (port, VC) pair is oversubscribed at admissible loads.
        std::vector<int> perm(static_cast<std::size_t>(num_nodes));
        for (int round = 0; round < streams_per_node; ++round) {
            randomDerangement(perm, rng);
            const int lane = plan.partition.rtFirst
                + round % plan.partition.rtCount;
            for (int node = 0; node < num_nodes; ++node) {
                Stream stream;
                stream.id = sim::StreamId(next_id++);
                stream.src = sim::NodeId(node);
                stream.dst = sim::NodeId(
                    perm[static_cast<std::size_t>(node)]);
                stream.cls = cls;
                stream.vcLane = lane;
                finish_stream(stream);
            }
        }
    } else {
        for (int node = 0; node < num_nodes; ++node) {
            for (int s = 0; s < streams_per_node; ++s) {
                Stream stream;
                stream.id = sim::StreamId(next_id++);
                stream.src = sim::NodeId(node);
                const auto draw = static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(num_nodes - 1)));
                stream.dst =
                    sim::NodeId(draw >= node ? draw + 1 : draw);
                stream.cls = cls;
                stream.vcLane = plan.partition.rtFirst
                    + static_cast<int>(rng.uniformInt(
                          static_cast<std::uint64_t>(
                              plan.partition.rtCount)));
                finish_stream(stream);
            }
        }
    }

    if (be_load > 0.0) {
        if (plan.partition.beCount == 0) {
            sim::fatal("planMix: best-effort load %.2f but no "
                       "best-effort VCs in the partition",
                       be_load);
        }
        // Constant injection rate: messages/s = be_load * link flit
        // rate / message length.
        const double msgs_per_second = be_load
            * router.flitsPerSecond()
            / static_cast<double>(traffic.beMessageFlits);
        plan.beInterval = static_cast<sim::Tick>(std::llround(
            static_cast<double>(sim::kSecond) / msgs_per_second));
        plan.plannedBeLoad = be_load;
    }

    return plan;
}

std::string
MixPlan::describe() const
{
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu RT streams (%d/node, lanes [%d,%d), cap %d/VC), "
                  "BE lanes [%d,%d), BE interval %s",
                  streams.size(), streamsPerNode, partition.rtFirst,
                  partition.rtFirst + partition.rtCount,
                  streamsPerVcCapacity, partition.beFirst,
                  partition.beFirst + partition.beCount,
                  beInterval == sim::kTickNever
                      ? "-"
                      : sim::formatTime(beInterval).c_str());
    return buf;
}

} // namespace mediaworm::traffic
