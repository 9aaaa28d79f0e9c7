/**
 * @file
 * Routing-policy layer: turns a declarative Topology into per-router
 * route tables plus the VC-class structure that keeps them
 * deadlock-free, and exposes the channel-dependency graph (CDG) the
 * deadlock-freedom tests check.
 *
 * Every shape routes through these tables, including the paper's
 * two: on the single switch every entry is an ejection entry, so the
 * policy has nothing to choose; the fat mesh is mesh XY whose every
 * inter-switch hop is a fat channel (see FatLinkPolicy).
 *
 * Policies
 *  - DimensionOrder: deterministic XY on meshes, where a fat
 *    channel's entry applies the fat-link policy (all parallel links
 *    as least-loaded or Select::Random candidates, or the static
 *    link first + dest % fat); on tori the
 *    shortest way around each ring with two dateline VC classes
 *    (class 0 while the remaining ring path still crosses the wrap
 *    channel, class 1 after), which orders every ring's channels
 *    acyclically; on the Clos it degenerates to a deterministic
 *    single-up path (spine = dest leaf mod m).
 *  - UpDown: on the Clos, the natural multi-up routing (all spines
 *    are candidates, least-loaded pick, then the single down link);
 *    on meshes/tori, classic up-down routing over a BFS spanning tree
 *    rooted at router 0 (up to the LCA, then down), which is acyclic
 *    because up channels order by decreasing depth and down channels
 *    by increasing depth.
 *  - Adaptive: minimal adaptive candidates in a dedicated top VC
 *    class, taken only when their mapped output VC is free at
 *    route time (unallocated and drained downstream; see
 *    WormholeRouter::routeComputed), with the DimensionOrder route as
 *    the always-present escape candidate in the lower class(es).
 *    Allocation waits only ever happen on the escape subnetwork,
 *    whose CDG is acyclic - Duato's condition for deadlock-free
 *    wormhole adaptive routing.
 *    (On the Clos, where every spine choice is already cycle-free,
 *    adaptive keeps one VC class and just prefers free spines.)
 *
 * The deadlock tests build the channel-dependency graph (CDG) from
 * the *actual* tables (tests/reference_topology.hh), so the
 * acyclicity proof validates what the router executes, not what the
 * builder intended.
 */

#ifndef MEDIAWORM_NETWORK_ROUTING_HH
#define MEDIAWORM_NETWORK_ROUTING_HH

#include <vector>

#include "config/network_config.hh"
#include "network/topology.hh"
#include "router/wormhole_router.hh"

namespace mediaworm::network {

/** Route tables for every router of a topology, plus VC structure. */
struct RoutingTables
{
    /** VC classes the tables assume; each router takes it with its
     *  table (WormholeRouter::setRouteTable). */
    int vcClasses = 1;

    /** True when any entry uses Select::AdaptiveEscape. */
    bool adaptive = false;

    /** perRouter[r][dest_node] = candidates at router r. */
    std::vector<router::RouteTable> perRouter;
};

/**
 * Builds route tables for @p kind over @p topo. @p kind must be a
 * concrete policy (not Default; resolve with
 * NetworkConfig::effectiveRouting() first). @p fat_links picks among
 * the parallel links of fat channels (fat mesh only).
 */
RoutingTables buildRouting(
    const Topology& topo, config::RoutingKind kind,
    config::FatLinkPolicy fat_links = config::FatLinkPolicy::LeastLoaded);

/**
 * BFS spanning tree over the topology's channels, rooted at router
 * 0: parents[r] is r's tree parent (-1 for the root). Neighbour
 * visit order follows channel-creation order, so the tree is
 * deterministic. Shared by the UpDown policy and the calculus route
 * model.
 */
std::vector<int> bfsTreeParents(const Topology& topo);

} // namespace mediaworm::network

#endif // MEDIAWORM_NETWORK_ROUTING_HH
