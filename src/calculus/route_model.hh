/**
 * @file
 * Analytic route model: the ordered contention points a stream's
 * flits traverse, mirroring network::Network's wiring exactly.
 *
 * The simulator has two scheduling-point families on a stream's path:
 *
 *  - the NI injection multiplexer (the source end of the injection
 *    link, always FIFO), and
 *  - one output-port multiplexer per traversed router (discipline
 *    RouterConfig::scheduler) - the ejection link's server is the
 *    destination router's output port, and the NI sink drains at link
 *    rate, so ejection adds no further contention point.
 *
 * The model walks the same route tables the simulator's routers
 * load (network::buildRouting), for every shape. A hop whose entry
 * lists several candidates - a fat channel under the least-loaded
 * or random policies - is one aggregate server of count x link rate
 * (the router spreads a stream's messages across them); under the
 * static policy the entry names one link, a single-rate server.
 *
 * Each contention point carries a stable identity key so the oracle
 * can intersect routes: two streams interfere at a point iff their
 * routes contain the same key.
 */

#ifndef MEDIAWORM_CALCULUS_ROUTE_MODEL_HH
#define MEDIAWORM_CALCULUS_ROUTE_MODEL_HH

#include <vector>

#include "config/network_config.hh"
#include "config/router_config.hh"
#include "network/routing.hh"
#include "network/topology.hh"

namespace mediaworm::calculus {

/** One multiplexing point on a stream's path. */
struct ContentionPoint
{
    /**
     * Stable identity for interference matching. Injection points
     * use -(node + 1); router output points use
     * switchIndex * 4096 + outputPortKey, where outputPortKey is the
     * entry's port (endpoint and static-policy fat links) or its
     * first port (aggregated multi-candidate hops).
     */
    int key = 0;

    /** Server capacity in flits/us (fat x link rate for aggregated
     *  fat channels). */
    double capacityFlitsPerUs = 0.0;

    /** Scheduling discipline arbitrating the point. */
    config::SchedulerKind discipline =
        config::SchedulerKind::VirtualClock;

    /** Fixed pipeline + propagation latency behind the point, us. */
    double fixedLatencyUs = 0.0;

    /** Dense number of the point in [0, RouteModel::numPoints()),
     *  one-to-one with key: injection points take the node index,
     *  router output points follow (switch x
     *  Topology::portsRequired() + port). */
    int index = 0;
};

/** A stream's path as an ordered list of contention points. */
using Route = std::vector<ContentionPoint>;

/**
 * Precomputed route model for one (router, network) configuration.
 *
 * Builds the topology graph and the routing tables once
 * (network/routing.hh) and walks them per stream, so the model
 * analyses exactly the paths the simulator routes. Multi-candidate
 * hops become one aggregate server of count x link rate. When the
 * candidates lead to different routers (the Clos up-phase under
 * up-down routing) the symmetric spine->leaf down hop is bundled
 * the same way - every flow into a leaf shares the bundle's key, so
 * interference matching stays exact at bundle granularity.
 *
 * Adaptive routing has no static path: analyzable() returns false
 * and the oracle reports every stream unbounded instead of walking.
 */
class RouteModel
{
  public:
    RouteModel(const config::RouterConfig& router,
               const config::NetworkConfig& net);

    /** False when the routing policy has no static path (adaptive). */
    bool analyzable() const { return !tables_.adaptive; }

    /** Bound on ContentionPoint::index over every route. */
    int numPoints() const
    {
        return topo_.numNodes()
            + topo_.numRouters() * topo_.portsRequired();
    }

    /** Endpoint count of the modelled topology. */
    int numNodes() const { return topo_.numNodes(); }

    /** VC classes the active policy's route tables name
     *  (network::RoutingTables::vcClasses); each owns numVcs /
     *  vcClasses() output VCs. */
    int vcClasses() const { return tables_.vcClasses; }

    /** The (src, dst) stream's ordered contention points. Requires
     *  analyzable(). */
    Route routeOf(int src, int dst) const;

    /** Routers on the (src, dst) path; adaptive routes count their
     *  escape path. Valid for every policy. */
    int routerHops(int src, int dst) const;

  private:
    /** The table entry at @p router for destination @p dst. */
    const router::RouteCandidates& entry(int router, int dst) const;

    /** The router across the channel leaving @p router at @p port. */
    int nextRouter(int router, int port) const;

    config::RouterConfig router_;
    network::Topology topo_;
    network::RoutingTables tables_;
};

/** Link capacity in flits/us for @p router. */
double linkCapacityFlitsPerUs(const config::RouterConfig& router);

} // namespace mediaworm::calculus

#endif // MEDIAWORM_CALCULUS_ROUTE_MODEL_HH
