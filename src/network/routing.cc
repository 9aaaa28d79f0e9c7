#include "network/routing.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mediaworm::network {

namespace {

using router::RouteCandidates;

/** One deterministic grid step: direction (0=E 1=W 2=S 3=N) + VC
 *  class. Class -1 = identity (single-class topologies). */
struct GridStep
{
    int dir;
    int vcClass;
};

/** Dimension-order step on a mesh: X first, then Y, one class. */
GridStep
meshStep(int x, int y, int tx, int ty)
{
    if (tx != x)
        return {tx > x ? 0 : 1, -1};
    MW_ASSERT(ty != y);
    return {ty > y ? 2 : 3, -1};
}

/**
 * Dimension-order step on a torus: the shortest way around the
 * current dimension's ring (ties go East/South), with the dateline
 * class rule - class 0 while the remaining ring path still crosses
 * the wrap channel, class 1 once it no longer does. Within a ring,
 * class-0 channels order by position up to the wrap, the wrap hop
 * exits into class 1, and class-1 traffic never uses the wrap, so
 * every ring's dependency graph is a chain; X resolves before Y, so
 * the chains compose acyclically.
 */
GridStep
torusStep(int width, int height, int x, int y, int tx, int ty)
{
    if (tx != x) {
        const int east = (tx - x + width) % width;
        const int west = (x - tx + width) % width;
        if (east <= west)
            return {0, tx < x ? 0 : 1};
        return {1, tx > x ? 0 : 1};
    }
    MW_ASSERT(ty != y);
    const int south = (ty - y + height) % height;
    const int north = (y - ty + height) % height;
    if (south <= north)
        return {2, ty < y ? 0 : 1};
    return {3, ty > y ? 0 : 1};
}

/**
 * Entry for the channel whose first port is @p base. A fat channel
 * (@p fat parallel links, Section 3.4; only the single-class fat
 * mesh has them) applies the fat-link policy: every link as a
 * candidate for the least-loaded or random pick, or the static link
 * base + dest % fat.
 */
RouteCandidates
channelEntry(int base, int fat, int dest, config::FatLinkPolicy policy,
             int vc_class)
{
    if (fat == 1)
        return RouteCandidates::single(base, vc_class);
    MW_ASSERT(vc_class < 0);
    if (policy == config::FatLinkPolicy::Static)
        return RouteCandidates::single(base + dest % fat);
    RouteCandidates rc;
    MW_ASSERT(fat <= static_cast<int>(rc.ports.size()));
    rc.count = fat;
    for (int k = 0; k < fat; ++k)
        rc.ports[static_cast<std::size_t>(k)] = base + k;
    if (policy == config::FatLinkPolicy::Random)
        rc.select = RouteCandidates::Select::Random;
    return rc;
}

/** Output port of the (first) channel from @p s to neighbour @p v. */
int
portToward(const Topology& topo, int s, int v)
{
    for (const int c : topo.outChannelsOf(s)) {
        if (topo.channels()[static_cast<std::size_t>(c)].dstRouter == v)
            return topo.channels()[static_cast<std::size_t>(c)].srcPort;
    }
    sim::panic("routing: no channel from router %d to %d", s, v);
}

/**
 * Next hop of the up-down tree route from @p s to @p target: up
 * (towards the root) until the LCA, then down along @p target's
 * ancestor chain.
 */
int
nextHopUpDown(const std::vector<int>& parents, int s, int target)
{
    // Ancestor chain of the target, leaf to root.
    std::vector<int> chain;
    for (int a = target; a != -1;
         a = parents[static_cast<std::size_t>(a)])
        chain.push_back(a);

    // Climb from s until we sit on that chain (the LCA).
    int a = s;
    std::size_t at;
    for (;;) {
        const auto it = std::find(chain.begin(), chain.end(), a);
        if (it != chain.end()) {
            at = static_cast<std::size_t>(it - chain.begin());
            break;
        }
        a = parents[static_cast<std::size_t>(a)];
        MW_ASSERT(a != -1 || !chain.empty());
    }
    if (a != s)
        return parents[static_cast<std::size_t>(s)]; // Up phase.
    MW_ASSERT(at > 0); // s == target is the caller's ejection case.
    return chain[at - 1]; // Down phase: the child towards the target.
}

} // namespace

std::vector<int>
bfsTreeParents(const Topology& topo)
{
    const int num = topo.numRouters();
    std::vector<int> parents(static_cast<std::size_t>(num), -2);
    parents[0] = -1;
    std::vector<int> queue{0};
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        for (const int c : topo.outChannelsOf(u)) {
            const int v =
                topo.channels()[static_cast<std::size_t>(c)].dstRouter;
            if (parents[static_cast<std::size_t>(v)] == -2) {
                parents[static_cast<std::size_t>(v)] = u;
                queue.push_back(v);
            }
        }
    }
    for (int r = 0; r < num; ++r)
        MW_ASSERT(parents[static_cast<std::size_t>(r)] != -2);
    return parents;
}

RoutingTables
buildRouting(const Topology& topo, config::RoutingKind kind,
             config::FatLinkPolicy fat_links)
{
    using config::RoutingKind;
    using config::TopologyKind;

    MW_ASSERT(kind != RoutingKind::Default);
    const int num_routers = topo.numRouters();
    const int num_nodes = topo.numNodes();

    RoutingTables out;
    out.perRouter.resize(static_cast<std::size_t>(num_routers));
    for (auto& table : out.perRouter)
        table.resize(static_cast<std::size_t>(num_nodes));

    const bool is_clos = topo.kind() == TopologyKind::Clos;
    const bool is_torus = topo.kind() == TopologyKind::Torus;
    const int width = topo.meshWidth;
    const int height = topo.meshHeight;

    if (is_torus && kind == RoutingKind::DimensionOrder)
        out.vcClasses = 2;
    if (kind == RoutingKind::Adaptive && !is_clos) {
        out.vcClasses = is_torus ? 3 : 2;
        out.adaptive = true;
    }
    if (kind == RoutingKind::Adaptive && is_clos)
        out.adaptive = true;

    std::vector<int> parents;
    if (kind == RoutingKind::UpDown && !is_clos)
        parents = bfsTreeParents(topo);

    for (int s = 0; s < num_routers; ++s) {
        router::RouteTable& table =
            out.perRouter[static_cast<std::size_t>(s)];
        for (int d = 0; d < num_nodes; ++d) {
            const TopoEndpoint ep =
                topo.endpoints()[static_cast<std::size_t>(d)];
            RouteCandidates& rc =
                table[static_cast<std::size_t>(d)];
            if (ep.router == s) {
                // Ejection: deliver on the stream's nominal lane.
                rc = RouteCandidates::single(ep.port);
                continue;
            }

            if (is_clos) {
                const int m = topo.closM;
                const int n = topo.closN;
                if (s >= topo.closR) {
                    // Spine: one down channel per leaf.
                    rc = RouteCandidates::single(ep.router);
                    continue;
                }
                const int esc = ep.router % m; // Deterministic spine.
                switch (kind) {
                  case RoutingKind::DimensionOrder:
                    rc = RouteCandidates::single(n + esc);
                    break;
                  case RoutingKind::UpDown:
                    // Natural Clos routing: every spine works;
                    // least-loaded pick spreads the up-phase.
                    rc.count = m;
                    for (int j = 0; j < m; ++j)
                        rc.ports[static_cast<std::size_t>(j)] = n + j;
                    break;
                  case RoutingKind::Adaptive:
                    // Free spines first, deterministic spine as the
                    // escape. One VC class: any spine choice is
                    // already cycle-free (up then down).
                    rc.count = 0;
                    for (int j = 0; j < m; ++j) {
                        if (j != esc)
                            rc.ports[static_cast<std::size_t>(
                                rc.count++)] = n + j;
                    }
                    rc.ports[static_cast<std::size_t>(rc.count++)] =
                        n + esc;
                    if (rc.count > 1)
                        rc.select =
                            RouteCandidates::Select::AdaptiveEscape;
                    break;
                  case RoutingKind::Default:
                    sim::panic("buildRouting: unresolved Default");
                }
                continue;
            }

            // Grid shapes (mesh / torus).
            const int x = s % width;
            const int y = s / width;
            const int tx = ep.router % width;
            const int ty = ep.router / width;
            switch (kind) {
              case RoutingKind::DimensionOrder: {
                const GridStep step = is_torus
                    ? torusStep(width, height, x, y, tx, ty)
                    : meshStep(x, y, tx, ty);
                rc = channelEntry(topo.dirPort(s, step.dir),
                                  topo.fatFactor, d, fat_links,
                                  step.vcClass);
                break;
              }
              case RoutingKind::UpDown: {
                const int next = nextHopUpDown(parents, s, ep.router);
                rc = RouteCandidates::single(
                    portToward(topo, s, next));
                break;
              }
              case RoutingKind::Adaptive: {
                // Minimal adaptive candidates (the productive
                // direction per dimension, shortest way on the
                // torus) in the top VC class; the dimension-order
                // route is the escape candidate in the dateline
                // class(es) below it.
                const int adaptive_class = is_torus ? 2 : 1;
                rc.count = 0;
                auto add = [&](const GridStep& step) {
                    rc.ports[static_cast<std::size_t>(rc.count)] =
                        topo.dirPort(s, step.dir);
                    rc.vcClasses[static_cast<std::size_t>(rc.count)] =
                        static_cast<std::int8_t>(adaptive_class);
                    ++rc.count;
                };
                if (tx != x)
                    add(is_torus
                            ? torusStep(width, height, x, y, tx, y)
                            : meshStep(x, y, tx, y));
                if (ty != y)
                    add(is_torus
                            ? torusStep(width, height, tx, y, tx, ty)
                            : meshStep(tx, y, tx, ty));
                const GridStep esc = is_torus
                    ? torusStep(width, height, x, y, tx, ty)
                    : meshStep(x, y, tx, ty);
                rc.ports[static_cast<std::size_t>(rc.count)] =
                    topo.dirPort(s, esc.dir);
                rc.vcClasses[static_cast<std::size_t>(rc.count)] =
                    static_cast<std::int8_t>(
                        esc.vcClass < 0 ? 0 : esc.vcClass);
                ++rc.count;
                if (rc.count > 1)
                    rc.select =
                        RouteCandidates::Select::AdaptiveEscape;
                break;
              }
              case RoutingKind::Default:
                sim::panic("buildRouting: unresolved Default");
            }
        }
    }
    return out;
}

} // namespace mediaworm::network
