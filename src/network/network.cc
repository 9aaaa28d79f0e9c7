#include "network/network.hh"

#include "network/routing.hh"
#include "sim/logging.hh"

namespace mediaworm::network {

Network::Network(sim::Simulator& simulator,
                 const config::RouterConfig& router_cfg,
                 const config::NetworkConfig& net_cfg,
                 MetricsHub& metrics, sim::Rng& rng)
    : Network(std::vector<sim::Simulator*>{&simulator}, ShardPlan{},
              router_cfg, net_cfg, metrics, rng)
{
}

Network::Network(std::vector<sim::Simulator*> shard_sims,
                 const ShardPlan& plan,
                 const config::RouterConfig& router_cfg,
                 const config::NetworkConfig& net_cfg,
                 MetricsHub& metrics, sim::Rng& rng)
    : sims_(std::move(shard_sims)), plan_(plan), routerCfg_(router_cfg),
      metrics_(metrics)
{
    MW_ASSERT(!sims_.empty());
    MW_ASSERT(static_cast<int>(sims_.size()) == plan_.numShards
              || (plan_.trivial() && sims_.size() == 1));
    routerCfg_.validate();
    net_cfg.validate();
    linkDelay_ = static_cast<sim::Tick>(config::kLinkDelayCycles
                                        + config::kOutputCycles)
        * routerCfg_.cycleTime();

    const Topology topo = Topology::build(net_cfg, routerCfg_.numPorts);
    if (const std::string error = topo.budgetError(routerCfg_);
        !error.empty())
        sim::fatal("Network: %s", error.c_str());
    RoutingTables tables = buildRouting(
        topo, net_cfg.effectiveRouting(), net_cfg.fatLinkPolicy);
    if (tables.vcClasses > routerCfg_.numVcs) {
        sim::fatal("Network: %s routing on the %s needs %d VC "
                   "classes, but numVcs is %d",
                   config::toString(net_cfg.effectiveRouting()),
                   config::toString(net_cfg.topology),
                   tables.vcClasses, routerCfg_.numVcs);
    }
    wireTopology(topo);

    // The Random fat-link policy draws per routed header: each
    // switch gets its own split, in switch order, so the draws stay
    // on the switch's shard.
    const bool random_picks =
        net_cfg.topology == config::TopologyKind::FatMesh
        && net_cfg.fatLinkPolicy == config::FatLinkPolicy::Random;
    for (int r = 0; r < topo.numRouters(); ++r) {
        router::WormholeRouter& sw = *routers_[static_cast<std::size_t>(r)];
        sw.setRouteTable(
            std::move(tables.perRouter[static_cast<std::size_t>(r)]),
            tables.vcClasses, random_picks ? rng.split() : sim::Rng());
        // Only wired ports have buffers; a table naming any other
        // port is a routing bug, reported here rather than mid-run.
        sw.checkRoutesWired();
    }
}

sim::Simulator&
Network::simOfRouter(int r) const
{
    return *sims_[static_cast<std::size_t>(plan_.shardOfRouter(r))];
}

router::Link&
Network::newLink(const std::string& name, int sender_router,
                 int receiver_router)
{
    // Canonical channel keys in link-creation order: the same keys
    // in every execution mode, so same-tick link deliveries merge
    // identically whether the link is intra- or cross-shard.
    links_.push_back(std::make_unique<router::Link>(
        simOfRouter(sender_router), linkDelay_, name,
        router::ChannelIds::forLinkIndex(links_.size())));
    router::Link& link = *links_.back();

    const int sender_shard = plan_.shardOfRouter(sender_router);
    const int receiver_shard = plan_.shardOfRouter(receiver_router);
    link.bindShards(simOfRouter(sender_router),
                    simOfRouter(receiver_router));
    if (sender_shard != receiver_shard) {
        crossChannels_.push_back({&link, true, receiver_shard});
        crossChannels_.push_back({&link, false, sender_shard});
    }
    return link;
}

void
Network::attachEndpoint(router::WormholeRouter& sw, int sw_index,
                        int port, int node)
{
    auto ni = std::make_unique<NetworkInterface>(
        simOfRouter(sw_index), sim::NodeId(node), routerCfg_, metrics_,
        "ni" + std::to_string(node));

    router::Link& inj =
        newLink("inj" + std::to_string(node), sw_index, sw_index);
    sw.connectInputLink(port, inj);
    ni->connectInjectionLink(inj, routerCfg_.flitBufferDepth);

    router::Link& ej =
        newLink("ej" + std::to_string(node), sw_index, sw_index);
    sw.connectSinkLink(port, ej);
    ej.connectReceiver(ni.get());

    MW_ASSERT(static_cast<int>(nis_.size()) == node);
    nis_.push_back(std::move(ni));
}

void
Network::wireTopology(const Topology& topo)
{
    for (int r = 0; r < topo.numRouters(); ++r) {
        routers_.push_back(std::make_unique<router::WormholeRouter>(
            simOfRouter(r), routerCfg_, "router" + std::to_string(r)));
    }

    // Endpoints in node order (node n of a grid lives on switch
    // n / eps at port n % eps; Clos leaves follow the same pattern).
    nodeRouter_.resize(static_cast<std::size_t>(topo.numNodes()));
    for (int node = 0; node < topo.numNodes(); ++node) {
        const TopoEndpoint ep =
            topo.endpoints()[static_cast<std::size_t>(node)];
        nodeRouter_[static_cast<std::size_t>(node)] = ep.router;
        attachEndpoint(*routers_[static_cast<std::size_t>(ep.router)],
                       ep.router, ep.port, node);
    }

    // Inter-router channels in the graph's canonical order.
    for (const TopoChannel& ch : topo.channels()) {
        router::Link& link = newLink(
            "sw" + std::to_string(ch.srcRouter) + "p"
                + std::to_string(ch.srcPort) + "-sw"
                + std::to_string(ch.dstRouter) + "p"
                + std::to_string(ch.dstPort),
            ch.srcRouter, ch.dstRouter);
        routers_[static_cast<std::size_t>(ch.srcRouter)]
            ->connectOutputLink(ch.srcPort, link,
                                routerCfg_.flitBufferDepth);
        routers_[static_cast<std::size_t>(ch.dstRouter)]
            ->connectInputLink(ch.dstPort, link);
    }
}

int
Network::switchOfNode(int node) const
{
    return nodeRouter_[static_cast<std::size_t>(node)];
}

sim::Tick
Network::minCrossShardDelay() const
{
    sim::Tick min_delay = sim::kTickNever;
    for (const CrossChannel& channel : crossChannels_) {
        if (min_delay == sim::kTickNever
            || channel.link->delay() < min_delay)
            min_delay = channel.link->delay();
    }
    return min_delay;
}

std::uint64_t
Network::totalBacklogFlits() const
{
    std::uint64_t total = 0;
    for (const auto& ni : nis_)
        total += ni->backlogFlits();
    return total;
}

void
Network::attachTracer(sim::Tracer& tracer)
{
    for (std::size_t i = 0; i < routers_.size(); ++i)
        routers_[i]->setTracer(&tracer, static_cast<int>(i));
    for (auto& ni : nis_)
        ni->setTracer(&tracer);
}

void
Network::registerStats(stats::Registry& registry) const
{
    for (const auto& sw : routers_)
        sw->registerStats(registry);
    for (std::size_t i = 0; i < nis_.size(); ++i) {
        const NetworkInterface* ni = nis_[i].get();
        registry.add("ni" + std::to_string(i) + ".flits_injected", [ni] {
            return static_cast<double>(ni->flitsInjected());
        });
        registry.add("ni" + std::to_string(i) + ".backlog_flits", [ni] {
            return static_cast<double>(ni->backlogFlits());
        });
    }
    for (const auto& link : links_) {
        const router::Link* raw = link.get();
        registry.add("link." + raw->name() + ".flits", [raw] {
            return static_cast<double>(raw->flitsSent());
        });
    }
}

} // namespace mediaworm::network
