/**
 * @file
 * Graph predicates over topologies and route tables (test oracle).
 *
 * Connectivity, degree and link symmetry of a network::Topology, and
 * the channel-dependency graph (CDG) of a network::RoutingTables
 * with its acyclicity check - Dally and Seitz's condition for
 * deadlock-free deterministic wormhole routing, and Duato's when
 * applied to the escape subnetwork of adaptive tables. The graph is
 * built from the actual tables, so the proof covers what the router
 * executes. Deliberately simple (quadratic scans) so it is easy to
 * check by eye.
 */

#ifndef MEDIAWORM_TESTS_REFERENCE_TOPOLOGY_HH
#define MEDIAWORM_TESTS_REFERENCE_TOPOLOGY_HH

#include <utility>
#include <vector>

#include "network/routing.hh"
#include "network/topology.hh"

namespace mediaworm::reference {

/** Number of distinct neighbour routers of @p router. */
int degreeOf(const network::Topology& topo, int router);

/** True when every router can reach every other router. */
bool connected(const network::Topology& topo);

/**
 * True when the channel table is symmetric: for every directed
 * channel a->b there is exactly one b->a channel joining the same
 * two (router, port) pairs in reverse.
 */
bool symmetric(const network::Topology& topo);

/**
 * Channel-dependency graph of @p tables over @p topo: node id =
 * channel * vcClasses + vcClass, one edge per (hold, request) pair a
 * message can create. With @p escape_only, AdaptiveEscape entries
 * contribute only their escape (last) candidate, so the graph holds
 * the direct escape dependencies and no more: not the indirect or
 * cross dependencies a message creates through adaptive channels,
 * which Duato's extended CDG adds. Its acyclicity proves adaptive
 * routing deadlock-free only together with the router's atomic
 * allocation rule (an adaptive VC is taken only when unallocated and
 * drained downstream). Entries with other Select modes always
 * contribute all candidates.
 */
std::vector<std::pair<int, int>>
channelDependencyEdges(const network::Topology& topo,
                       const network::RoutingTables& tables,
                       bool escape_only);

/** True when the directed graph on @p num_nodes nodes is acyclic. */
bool acyclic(int num_nodes,
             const std::vector<std::pair<int, int>>& edges);

} // namespace mediaworm::reference

#endif // MEDIAWORM_TESTS_REFERENCE_TOPOLOGY_HH
