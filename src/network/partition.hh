/**
 * @file
 * Topology partitioner for conservative-parallel execution: maps
 * every router (and with it, its attached endpoints and their NIs)
 * to a shard. Links between routers of different shards become the
 * cross-shard mailboxes the PDES executor synchronizes on
 * (sim/pdes.hh, router/link.hh).
 */

#ifndef MEDIAWORM_NETWORK_PARTITION_HH
#define MEDIAWORM_NETWORK_PARTITION_HH

#include <vector>

#include "config/network_config.hh"

namespace mediaworm::network {

/** Router-to-shard assignment for one topology. */
struct ShardPlan
{
    /** Shard count; 1 means the classic single-threaded run. */
    int numShards = 1;

    /** routerShard[r] = shard of router r; empty means all on 0. */
    std::vector<int> routerShard;

    /** Shard owning router @p r. */
    int
    shardOfRouter(int r) const
    {
        return routerShard.empty()
            ? 0
            : routerShard[static_cast<std::size_t>(r)];
    }

    /** True for the single-shard (classic) plan. */
    bool trivial() const { return numShards <= 1; }
};

/**
 * Plans a shard assignment for @p net.
 *
 * @param requested_shards Shard count from configuration: >= 1 is
 *        clamped to the router count; 0 asks for the auto heuristic
 *        (one shard per usable CPU, clamped likewise).
 * @param hardware_threads sim::usableCpus(), or
 *        any cap the caller wants the heuristic to respect.
 *
 * A single switch always yields one shard (there is nothing to
 * cut). Every other topology is cut into contiguous blocks of the
 * router index: on meshes/tori these are row-major strips that keep
 * most grid links internal; on the Clos the leaves spread across
 * shards and the spines land in the last block. The strip boundaries
 * carry the cross-shard channels, whose link delay is the
 * synchronization lookahead (Network::minCrossShardDelay()).
 */
ShardPlan planShards(const config::NetworkConfig& net,
                     int requested_shards, unsigned hardware_threads);

} // namespace mediaworm::network

#endif // MEDIAWORM_NETWORK_PARTITION_HH
