#include "reference_topology.hh"

#include <algorithm>
#include <set>

#include "sim/logging.hh"

namespace mediaworm::reference {

int
degreeOf(const network::Topology& topo, int router)
{
    std::vector<int> neighbours;
    for (const network::TopoChannel& ch : topo.channels()) {
        if (ch.srcRouter == router)
            neighbours.push_back(ch.dstRouter);
    }
    std::sort(neighbours.begin(), neighbours.end());
    neighbours.erase(
        std::unique(neighbours.begin(), neighbours.end()),
        neighbours.end());
    return static_cast<int>(neighbours.size());
}

bool
connected(const network::Topology& topo)
{
    if (topo.numRouters() <= 1)
        return true;
    std::vector<bool> seen(static_cast<std::size_t>(topo.numRouters()),
                           false);
    std::vector<int> stack{0};
    seen[0] = true;
    int reached = 1;
    while (!stack.empty()) {
        const int r = stack.back();
        stack.pop_back();
        for (const network::TopoChannel& ch : topo.channels()) {
            if (ch.srcRouter == r
                && !seen[static_cast<std::size_t>(ch.dstRouter)]) {
                seen[static_cast<std::size_t>(ch.dstRouter)] = true;
                ++reached;
                stack.push_back(ch.dstRouter);
            }
        }
    }
    return reached == topo.numRouters();
}

bool
symmetric(const network::Topology& topo)
{
    for (const network::TopoChannel& ch : topo.channels()) {
        int mirrors = 0;
        for (const network::TopoChannel& other : topo.channels()) {
            if (other.srcRouter == ch.dstRouter
                && other.srcPort == ch.dstPort
                && other.dstRouter == ch.srcRouter
                && other.dstPort == ch.srcPort)
                ++mirrors;
        }
        if (mirrors != 1)
            return false;
    }
    return true;
}

std::vector<std::pair<int, int>>
channelDependencyEdges(const network::Topology& topo,
                       const network::RoutingTables& tables,
                       bool escape_only)
{
    const int K = tables.vcClasses;
    const auto cls_of = [](const router::RouteCandidates& rc, int i) {
        const int c = rc.vcClasses[static_cast<std::size_t>(i)];
        return c < 0 ? 0 : c;
    };
    const auto first_cand = [escape_only](const router::RouteCandidates& rc) {
        return escape_only
                && rc.select == router::RouteCandidates::Select::AdaptiveEscape
            ? rc.count - 1
            : 0;
    };

    std::set<std::pair<int, int>> edges;
    for (int d = 0; d < topo.numNodes(); ++d) {
        const int tr = topo.routerOfNode(d);
        for (int u = 0; u < topo.numRouters(); ++u) {
            if (u == tr)
                continue;
            const router::RouteCandidates& rc =
                tables.perRouter[static_cast<std::size_t>(u)]
                                [static_cast<std::size_t>(d)];
            for (int i = first_cand(rc); i < rc.count; ++i) {
                const int c = topo.outChannelAt(
                    u, rc.ports[static_cast<std::size_t>(i)]);
                MW_ASSERT(c >= 0);
                const int v =
                    topo.channels()[static_cast<std::size_t>(c)]
                        .dstRouter;
                if (v == tr)
                    continue; // Next hop is the ejection port.
                const router::RouteCandidates& rc2 =
                    tables.perRouter[static_cast<std::size_t>(v)]
                                    [static_cast<std::size_t>(d)];
                for (int j = first_cand(rc2); j < rc2.count; ++j) {
                    const int c2 = topo.outChannelAt(
                        v, rc2.ports[static_cast<std::size_t>(j)]);
                    MW_ASSERT(c2 >= 0);
                    edges.insert({c * K + cls_of(rc, i),
                                  c2 * K + cls_of(rc2, j)});
                }
            }
        }
    }
    return {edges.begin(), edges.end()};
}

bool
acyclic(int num_nodes, const std::vector<std::pair<int, int>>& edges)
{
    // Kahn's algorithm over the (sparse) edge list.
    std::vector<int> indegree(static_cast<std::size_t>(num_nodes), 0);
    for (const auto& [from, to] : edges) {
        MW_ASSERT(from >= 0 && from < num_nodes);
        MW_ASSERT(to >= 0 && to < num_nodes);
        ++indegree[static_cast<std::size_t>(to)];
    }
    std::vector<int> ready;
    for (int n = 0; n < num_nodes; ++n) {
        if (indegree[static_cast<std::size_t>(n)] == 0)
            ready.push_back(n);
    }
    int removed = 0;
    while (!ready.empty()) {
        const int n = ready.back();
        ready.pop_back();
        ++removed;
        for (const auto& [from, to] : edges) {
            if (from == n
                && --indegree[static_cast<std::size_t>(to)] == 0)
                ready.push_back(to);
        }
    }
    return removed == num_nodes;
}

} // namespace mediaworm::reference
