#include "network/partition.hh"

#include <algorithm>

#include "network/topology.hh"
#include "sim/logging.hh"

namespace mediaworm::network {

ShardPlan
planShards(const config::NetworkConfig& net, int requested_shards,
           unsigned hardware_threads)
{
    MW_ASSERT(requested_shards >= 0);

    ShardPlan plan;
    if (net.topology == config::TopologyKind::SingleSwitch)
        return plan;

    // The single switch returned above, so no port count is read.
    const int num_routers = Topology::build(net, 0).numRouters();
    int shards = requested_shards;
    if (shards == 0)
        shards = static_cast<int>(std::max(1u, hardware_threads));
    shards = std::clamp(shards, 1, num_routers);
    if (shards <= 1)
        return plan;

    plan.numShards = shards;
    plan.routerShard.resize(static_cast<std::size_t>(num_routers));
    // Balanced contiguous blocks over the row-major router index:
    // router r goes to shard r*S/R, giving each shard floor(R/S) or
    // ceil(R/S) consecutive routers (horizontal strips of the mesh).
    for (int r = 0; r < num_routers; ++r) {
        plan.routerShard[static_cast<std::size_t>(r)] = static_cast<int>(
            (static_cast<long long>(r) * shards) / num_routers);
    }
    return plan;
}

} // namespace mediaworm::network
