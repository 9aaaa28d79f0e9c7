/**
 * @file
 * Declarative topology graph: the shape of an interconnect as plain
 * data, independent of the simulation objects that realize it.
 *
 * A Topology is a list of routers, a node -> (router, port) endpoint
 * map, and an ordered connect-pair table of directed inter-router
 * channels. network::Network walks these tables to instantiate
 * routers, links and NIs; network::buildRouting derives route tables
 * from the same graph; tests check graph-level properties
 * (connectivity, degree, symmetry; tests/reference_topology.hh)
 * without building a simulation.
 *
 * Builders cover the paper's two shapes (single switch, fat mesh)
 * plus k-ary 2-meshes, 2-D tori and 3-stage folded Clos networks,
 * all expressed in the same connect-pair idiom. Channel-creation
 * order is part of the contract: Network derives canonical
 * cross-shard event keys from link order, so the builders enumerate
 * channels deterministically (and the fat-mesh builder reproduces
 * the historical wiring order exactly, keeping determinism goldens
 * unchanged).
 */

#ifndef MEDIAWORM_NETWORK_TOPOLOGY_HH
#define MEDIAWORM_NETWORK_TOPOLOGY_HH

#include <string>
#include <vector>

#include "config/network_config.hh"

namespace mediaworm::config {
struct RouterConfig;
} // namespace mediaworm::config

namespace mediaworm::network {

/**
 * Flit-buffer memory one network may allocate, in bytes
 * (Topology::bufferBytes). Larger configurations are rejected up
 * front instead of failing mid-build with std::bad_alloc.
 */
inline constexpr double kMaxBufferBytes = 1024.0 * 1024.0 * 1024.0;

/** Endpoint attachment: node i lives at (router, port). */
struct TopoEndpoint
{
    int router = 0;
    int port = 0;
};

/** One directed inter-router channel. */
struct TopoChannel
{
    int srcRouter = 0;
    int srcPort = 0;
    int dstRouter = 0;
    int dstPort = 0;
};

/** An interconnect shape as a declarative graph. */
class Topology
{
  public:
    /** One 8-port-class switch; node p on port p. */
    static Topology singleSwitch(int ports);

    /**
     * The paper's fat mesh: a width x height grid with @p fat
     * parallel links between adjacent switches and @p eps endpoints
     * per switch. Port map per switch: endpoint ports first, then
     * fat channels per present direction in East/West/South/North
     * order (the layout the determinism goldens were captured on).
     */
    static Topology fatMesh(int width, int height, int fat, int eps);

    /** k-ary 2-mesh: fatMesh with single links, dimension-ordered
     *  port map, @p eps endpoints per switch. */
    static Topology mesh(int width, int height, int eps);

    /** 2-D torus: the mesh plus wrap-around channels; every switch
     *  has all four directions. */
    static Topology torus(int width, int height, int eps);

    /**
     * 3-stage folded Clos: @p r leaf switches with @p n endpoints
     * each, @p m spine switches, one up/down channel pair between
     * every (leaf, spine). Routers 0..r-1 are leaves, r..r+m-1
     * spines. Leaf ports: 0..n-1 endpoints, n+j to spine j. Spine
     * ports: i to leaf i.
     */
    static Topology clos(int m, int n, int r);

    /** Builds the graph described by a validated NetworkConfig;
     *  the single switch has @p router_ports ports. */
    static Topology build(const config::NetworkConfig& net,
                          int router_ports);

    config::TopologyKind kind() const { return kind_; }
    int numRouters() const { return numRouters_; }
    int numNodes() const { return static_cast<int>(endpoints_.size()); }

    /** Largest port index used by any router, plus one. */
    int portsRequired() const { return portsRequired_; }

    const std::vector<TopoEndpoint>& endpoints() const
    {
        return endpoints_;
    }

    /** Directed channels in canonical creation order. */
    const std::vector<TopoChannel>& channels() const
    {
        return channels_;
    }

    /** Router hosting endpoint @p node. */
    int
    routerOfNode(int node) const
    {
        return endpoints_[static_cast<std::size_t>(node)].router;
    }

    /**
     * Channel leaving @p router at @p port, or -1 when the port is
     * an endpoint/unused port.
     */
    int outChannelAt(int router, int port) const;

    /** All channel indices leaving @p router, in creation order. */
    std::vector<int> outChannelsOf(int router) const;

    /**
     * Estimated flit-buffer memory of the network, in bytes: wired
     * router ports x VCs x buffer depth x 64-byte flit x 2 (input
     * and output buffers). Every wired port is an endpoint port or
     * the source of exactly one channel, so wired ports = endpoints
     * + channels. A double, so no input overflows it.
     */
    double bufferBytes(const config::RouterConfig& router) const;

    /** Empty when the graph fits @p router: no router uses more
     *  than router.numPorts ports and bufferBytes() fits
     *  kMaxBufferBytes. Otherwise a diagnostic naming the first
     *  budget exceeded, the need and the limit. */
    std::string budgetError(const config::RouterConfig& router) const;

    // Shape metadata the routing policies consume. Valid per kind.
    int meshWidth = 0;   ///< Mesh/torus/fat-mesh grid width.
    int meshHeight = 0;  ///< Mesh/torus/fat-mesh grid height.
    int fatFactor = 1;   ///< Parallel links per grid direction.
    bool wrap = false;   ///< True for the torus.
    int endpointsPerSwitch = 1;
    int closM = 0; ///< Spine count.
    int closN = 0; ///< Endpoints per leaf.
    int closR = 0; ///< Leaf count.

    /**
     * Port map of grid shapes: first port of direction @p dir
     * (0=E 1=W 2=S 3=N) at switch @p s, or -1 when absent.
     */
    int dirPort(int s, int dir) const;

  private:
    Topology() = default;

    /** Shared grid builder behind fatMesh/mesh/torus. */
    static Topology grid(config::TopologyKind kind, int width,
                         int height, int fat, int eps, bool wrap);

    void addChannel(int src_router, int src_port, int dst_router,
                    int dst_port);
    void finalize();

    config::TopologyKind kind_ = config::TopologyKind::SingleSwitch;
    int numRouters_ = 1;
    int portsRequired_ = 0;
    std::vector<TopoEndpoint> endpoints_;
    std::vector<TopoChannel> channels_;
    /** outChan_[router * portsRequired_ + port] = channel or -1. */
    std::vector<int> outChan_;
    /** dirPort_[switch * 4 + dir] for grid kinds; empty otherwise. */
    std::vector<int> dirPort_;
};

} // namespace mediaworm::network

#endif // MEDIAWORM_NETWORK_TOPOLOGY_HH
