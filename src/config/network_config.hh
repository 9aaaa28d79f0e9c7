/**
 * @file
 * Topology-level configuration.
 */

#ifndef MEDIAWORM_CONFIG_NETWORK_CONFIG_HH
#define MEDIAWORM_CONFIG_NETWORK_CONFIG_HH

#include <string>

namespace mediaworm::config {

/** Supported interconnect topologies. */
enum class TopologyKind {
    SingleSwitch, ///< One router, one endpoint per port (Sections 5.1-5.6).
    FatMesh,      ///< k x k mesh with parallel inter-switch links (5.7).
    Mesh,         ///< k-ary 2-mesh, single links, dimension-order default.
    Torus,        ///< 2-D torus (wrap-around), dateline VC classes.
    Clos,         ///< 3-stage folded Clos (m spines, r leaves, n each).
};

/** Policy used to pick among the parallel links of a fat channel. */
enum class FatLinkPolicy {
    LeastLoaded, ///< Fewest queued flits right now (the paper's choice).
    Static,      ///< Hash of the stream id (no load awareness).
    Random,      ///< Uniform random per message.
};

/**
 * Routing policy over the topology graph (network/routing.hh).
 * Default resolves per topology: dimension-order (the paper's XY +
 * fat-link policy on the fat mesh) for the grid shapes, up-down
 * (Clos natural routing) for the Clos. The single switch ignores the
 * policy: every route there is an ejection.
 */
enum class RoutingKind {
    Default,
    DimensionOrder, ///< Deterministic XY (+ dateline classes on tori).
    UpDown,         ///< Spanning-tree up*/down* (natural on the Clos).
    Adaptive,       ///< Minimal adaptive + dimension-order escape class.
};

/** Returns a stable display name for a topology kind. */
const char* toString(TopologyKind kind);

/** Returns a stable display name for a fat-link policy. */
const char* toString(FatLinkPolicy policy);

/** Returns a stable display name for a routing kind. */
const char* toString(RoutingKind kind);

/**
 * Interconnect shape.
 *
 * Defaults describe the paper's fat-mesh study: a 2x2 mesh of 8-port
 * switches with 2 parallel links between neighbours, leaving 4
 * endpoint ports per switch (16 nodes).
 */
struct NetworkConfig
{
    TopologyKind topology = TopologyKind::SingleSwitch;
    RoutingKind routing = RoutingKind::Default;

    int meshWidth = 2;  ///< Switches per mesh/torus row.
    int meshHeight = 2; ///< Switches per mesh/torus column.
    int fatFactor = 2;  ///< Parallel links between adjacent switches
                        ///< (fat mesh only; mesh/torus use 1).
    FatLinkPolicy fatLinkPolicy = FatLinkPolicy::LeastLoaded;

    /**
     * Endpoints attached to each switch (fat-mesh/mesh/torus). For
     * SingleSwitch this always equals the router port count and is
     * derived, not read; for the Clos it is closN.
     */
    int endpointsPerSwitch = 4;

    int closM = 4; ///< Spine switches.
    int closN = 4; ///< Endpoints per leaf switch.
    int closR = 8; ///< Leaf switches.

    /** The concrete routing kind for this topology (never Default). */
    RoutingKind effectiveRouting() const;

    /**
     * Aborts via fatal() if a shape parameter is out of range.
     * Whether the shape fits the router's ports is checked on the
     * built graph (network::Topology::budgetError), so
     * @p router_ports is not read; callers may still pass it.
     */
    void validate(int router_ports = 0) const;

    /** One-line summary for logs and reports. */
    std::string describe() const;
};

} // namespace mediaworm::config

#endif // MEDIAWORM_CONFIG_NETWORK_CONFIG_HH
