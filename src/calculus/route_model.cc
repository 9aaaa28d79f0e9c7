#include "calculus/route_model.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::calculus {

namespace {

/** Cycle time in microseconds. */
double
cycleUs(const config::RouterConfig& router)
{
    return sim::toMicroseconds(router.cycleTime());
}

/** Fixed latency behind a router output port: the header pipeline,
 *  crossbar and output stages plus downstream link propagation. */
double
routerHopLatencyUs(const config::RouterConfig& router)
{
    return static_cast<double>(config::kHeaderPipelineCycles
                               + config::kCrossbarCycles
                               + config::kOutputCycles
                               + config::kLinkDelayCycles)
        * cycleUs(router);
}

} // namespace

double
linkCapacityFlitsPerUs(const config::RouterConfig& router)
{
    return router.flitsPerSecond() / 1e6;
}

RouteModel::RouteModel(const config::RouterConfig& router,
                       const config::NetworkConfig& net)
    : router_(router),
      topo_(network::Topology::build(net, router.numPorts)),
      tables_(network::buildRouting(topo_, net.effectiveRouting(),
                                    net.fatLinkPolicy))
{
}

const router::RouteCandidates&
RouteModel::entry(int router, int dst) const
{
    const router::RouteCandidates& rc =
        tables_.perRouter[static_cast<std::size_t>(router)]
                         [static_cast<std::size_t>(dst)];
    MW_ASSERT(rc.count >= 1);
    return rc;
}

int
RouteModel::nextRouter(int router, int port) const
{
    const int chan = topo_.outChannelAt(router, port);
    MW_ASSERT(chan >= 0);
    return topo_.channels()[static_cast<std::size_t>(chan)].dstRouter;
}

int
RouteModel::routerHops(int src, int dst) const
{
    const int dest_r = topo_.routerOfNode(dst);
    int hops = 1;
    for (int cur = topo_.routerOfNode(src); cur != dest_r; ++hops) {
        // Adaptive entries follow the escape (last) candidate: the
        // minimal dimension-order route.
        const router::RouteCandidates& rc = entry(cur, dst);
        const int pick =
            rc.select == router::RouteCandidates::Select::AdaptiveEscape
            ? rc.count - 1
            : 0;
        cur = nextRouter(cur, rc.ports[static_cast<std::size_t>(pick)]);
        MW_ASSERT(hops <= topo_.numRouters());
    }
    return hops;
}

Route
RouteModel::routeOf(int src, int dst) const
{
    MW_ASSERT(src != dst);
    MW_ASSERT(analyzable());

    const double cap = linkCapacityFlitsPerUs(router_);
    const double hop_latency = routerHopLatencyUs(router_);

    // Output @p port of switch @p sw as a server of @p width; the
    // identity key is sw * 4096 + port.
    auto output = [&](int sw, int port, double width) {
        return ContentionPoint{sw * 4096 + port, width,
                               router_.scheduler, hop_latency,
                               topo_.numNodes()
                                   + sw * topo_.portsRequired() + port};
    };

    Route route;
    // Injection multiplexer: the source end of the injection link.
    route.push_back({-(src + 1), cap, config::SchedulerKind::Fifo,
                     config::kLinkDelayCycles * cycleUs(router_),
                     src});

    int cur = topo_.routerOfNode(src);
    const int dest_r = topo_.routerOfNode(dst);
    while (cur != dest_r) {
        const router::RouteCandidates& rc = entry(cur, dst);
        // The router spreads a flow over every candidate (least-
        // loaded or random pick): one aggregate server of count x
        // link rate, keyed by the first port.
        const double width = cap * static_cast<double>(rc.count);
        route.push_back(output(cur, rc.ports[0], width));
        const int next = nextRouter(cur, rc.ports[0]);
        const bool fat_channel = std::all_of(
            rc.ports.begin(), rc.ports.begin() + rc.count,
            [&](int port) { return nextRouter(cur, port) == next; });
        cur = next;
        if (!fat_channel) {
            // Clos up-phase: the candidates lead to different
            // spines, so the symmetric spine->leaf down hop is
            // bundled the same way (keyed by the first spine's down
            // port, shared by every flow into that leaf).
            const int down = entry(cur, dst).ports[0];
            route.push_back(output(cur, down, width));
            cur = nextRouter(cur, down);
        }
        MW_ASSERT(route.size() <= static_cast<std::size_t>(
                      topo_.numRouters()) + 1);
    }

    // Ejection: the destination router's endpoint port.
    route.push_back(output(
        dest_r, topo_.endpoints()[static_cast<std::size_t>(dst)].port,
        cap));
    return route;
}

} // namespace mediaworm::calculus
