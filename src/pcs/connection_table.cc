#include "pcs/connection_table.hh"

#include "sim/logging.hh"

namespace mediaworm::pcs {

ConnectionTable::ConnectionTable(const PcsConfig& cfg) : cfg_(cfg)
{
    cfg_.validate();
    const auto slots = static_cast<std::size_t>(cfg_.numPorts)
        * static_cast<std::size_t>(cfg_.numVcs);
    srcBusy_.assign(slots, false);
    dstBusy_.assign(slots, false);
}

std::optional<Connection>
ConnectionTable::establish(sim::NodeId src, sim::Tick vtick,
                           sim::Rng& rng)
{
    const int m = cfg_.numVcs;
    const auto src_base = static_cast<std::size_t>(src.value() * m);

    for (int attempt = 0; attempt < cfg_.maxAttemptsPerConnection;
         ++attempt) {
        ++attempts_;

        // Input VC: chosen among the free VCs of the source link
        // ("once the input VC for a connection is determined ...").
        int free_count = 0;
        for (int v = 0; v < m; ++v)
            free_count += !srcBusy_[src_base + static_cast<std::size_t>(v)];
        if (free_count == 0) {
            ++dropped_;
            continue;
        }
        auto pick = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(free_count)));
        int src_vc = -1;
        for (int v = 0; v < m; ++v) {
            if (!srcBusy_[src_base + static_cast<std::size_t>(v)]
                && pick-- == 0) {
                src_vc = v;
                break;
            }
        }

        // Destination and its VC are drawn blindly; a busy VC nacks
        // the probe (no backtracking).
        const auto draw = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(cfg_.numPorts - 1)));
        const int dst = draw >= src.value() ? draw + 1 : draw;
        const int dst_vc = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(m)));
        const auto dst_slot = static_cast<std::size_t>(dst * m + dst_vc);
        if (dstBusy_[dst_slot]) {
            ++dropped_;
            continue;
        }

        srcBusy_[src_base + static_cast<std::size_t>(src_vc)] = true;
        dstBusy_[dst_slot] = true;
        ++established_;

        Connection connection;
        connection.stream = sim::StreamId(nextStreamId_++);
        connection.src = src;
        connection.dst = sim::NodeId(dst);
        connection.srcVc = src_vc;
        connection.dstVc = dst_vc;
        connection.vtick = vtick;
        connections_.push_back(connection);
        return connection;
    }
    return std::nullopt;
}

const Connection*
ConnectionTable::find(sim::StreamId stream) const
{
    for (const Connection& c : connections_) {
        if (c.stream == stream)
            return &c;
    }
    return nullptr;
}

int
ConnectionTable::sourceOccupancy(int node) const
{
    int busy = 0;
    for (int v = 0; v < cfg_.numVcs; ++v)
        busy += srcBusy_[static_cast<std::size_t>(
            node * cfg_.numVcs + v)];
    return busy;
}

int
ConnectionTable::destinationOccupancy(int node) const
{
    int busy = 0;
    for (int v = 0; v < cfg_.numVcs; ++v)
        busy += dstBusy_[static_cast<std::size_t>(
            node * cfg_.numVcs + v)];
    return busy;
}

} // namespace mediaworm::pcs
