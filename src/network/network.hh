/**
 * @file
 * Topology construction: wires routers, links and network interfaces
 * into a concrete interconnect. The shape comes from the declarative
 * topology graph (network/topology.hh): the paper's two systems - a
 * single switch with one endpoint per port and a k x k fat-mesh with
 * parallel inter-switch links (Section 3.4) - plus k-ary 2-meshes,
 * 2-D tori and 3-stage Clos networks. Every shape takes one build
 * path: wire the graph, then load each router with its table from
 * the routing-policy layer (network/routing.hh).
 *
 * Construction is shard-aware: given a ShardPlan, each router (with
 * its endpoints' NIs and their injection/ejection links) is built on
 * its shard's Simulator, and every inter-switch link whose ends live
 * on different shards is bound as a cross-shard channel pair (see
 * router/link.hh). The classic single-Simulator constructor is the
 * trivial plan.
 */

#ifndef MEDIAWORM_NETWORK_NETWORK_HH
#define MEDIAWORM_NETWORK_NETWORK_HH

#include <memory>
#include <string>
#include <vector>

#include "config/network_config.hh"
#include "config/router_config.hh"
#include "network/metrics.hh"
#include "network/network_interface.hh"
#include "network/partition.hh"
#include "network/topology.hh"
#include "router/link.hh"
#include "router/wormhole_router.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "stats/registry.hh"

namespace mediaworm::network {

/** A built interconnect: routers + links + NIs, ready for traffic. */
class Network
{
  public:
    /** One direction of a link that crosses shards: the channel's
     *  consumer shard drains it at PDES epoch boundaries. */
    struct CrossChannel
    {
        router::Link* link;
        /** True for the flit channel, false for the credit one. */
        bool isFlit;
        int consumerShard;
    };

    /**
     * Builds and wires the configured topology on one kernel (the
     * classic single-threaded run; trivial shard plan).
     *
     * @param simulator Owning kernel.
     * @param router_cfg Per-router hardware configuration.
     * @param net_cfg Topology shape.
     * @param metrics Shared measurement hub for all NI sinks.
     * @param rng Random stream (used by the Random fat-link policy).
     */
    Network(sim::Simulator& simulator,
            const config::RouterConfig& router_cfg,
            const config::NetworkConfig& net_cfg, MetricsHub& metrics,
            sim::Rng& rng);

    /**
     * Builds the topology across shards: router r and everything
     * attached to it live on shard_sims[plan.shardOfRouter(r)].
     *
     * @param shard_sims One Simulator per shard; must outlive the
     *        network. plan.numShards must match its size.
     */
    Network(std::vector<sim::Simulator*> shard_sims,
            const ShardPlan& plan,
            const config::RouterConfig& router_cfg,
            const config::NetworkConfig& net_cfg, MetricsHub& metrics,
            sim::Rng& rng);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Endpoint count. */
    int numNodes() const { return static_cast<int>(nis_.size()); }

    /** Router count. */
    int numRouters() const { return static_cast<int>(routers_.size()); }

    /** Endpoint @p node's network interface. */
    NetworkInterface& ni(int node) { return *nis_[
        static_cast<std::size_t>(node)]; }

    /** Router @p index. */
    router::WormholeRouter& router(int index)
    {
        return *routers_[static_cast<std::size_t>(index)];
    }

    /** All links (for utilization reporting). */
    const std::vector<std::unique_ptr<router::Link>>&
    links() const
    {
        return links_;
    }

    /** The switch that hosts endpoint @p node. */
    int switchOfNode(int node) const;

    /** The shard that owns endpoint @p node. */
    int
    shardOfNode(int node) const
    {
        return plan_.shardOfRouter(switchOfNode(node));
    }

    /** The Simulator that owns endpoint @p node (traffic sources
     *  for the node must schedule on it). */
    sim::Simulator&
    simOfNode(int node) const
    {
        return *sims_[static_cast<std::size_t>(shardOfNode(node))];
    }

    /** The shard plan this network was built with. */
    const ShardPlan& plan() const { return plan_; }

    /** Link channels that cross shards (PDES mailboxes). */
    const std::vector<CrossChannel>&
    crossChannels() const
    {
        return crossChannels_;
    }

    /**
     * Minimum delay among cross-shard links: the conservative
     * lookahead window. kTickNever when nothing crosses shards.
     */
    sim::Tick minCrossShardDelay() const;

    /** Total host-side injection backlog, for drain diagnostics. */
    std::uint64_t totalBacklogFlits() const;

    /**
     * Registers every router's, NI's and link's counters in
     * @p registry for end-of-run reporting.
     */
    void registerStats(stats::Registry& registry) const;

    /** Attaches @p tracer to every router and NI. */
    void attachTracer(sim::Tracer& tracer);

  private:
    /** Instantiates routers, endpoints and inter-router links for
     *  @p topo, in the canonical creation order. */
    void wireTopology(const Topology& topo);

    sim::Simulator& simOfRouter(int r) const;
    router::Link& newLink(const std::string& name, int sender_router,
                          int receiver_router);
    void attachEndpoint(router::WormholeRouter& sw, int sw_index,
                        int port, int node);

    std::vector<sim::Simulator*> sims_;
    ShardPlan plan_;
    config::RouterConfig routerCfg_;
    MetricsHub& metrics_;
    sim::Tick linkDelay_;

    std::vector<std::unique_ptr<router::WormholeRouter>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    std::vector<std::unique_ptr<router::Link>> links_;
    std::vector<CrossChannel> crossChannels_;
    /** nodeRouter_[node] = hosting router (from the topology graph). */
    std::vector<int> nodeRouter_;
};

} // namespace mediaworm::network

#endif // MEDIAWORM_NETWORK_NETWORK_HH
