/**
 * @file
 * PCS connection establishment and accounting (Table 3).
 *
 * A connection-establishment probe walks the (single-switch) path
 * reserving one VC per link. The probe's source VC is chosen among
 * the free VCs of the source link; the destination VC is drawn
 * blindly from a uniform distribution over all VCs of the
 * destination link, per the paper's workload description - if that
 * specific VC is busy the probe is nacked and the connection attempt
 * is dropped (deterministic routing, no backtracking, Section 3.5).
 * Dropped attempts retry with fresh draws; every try counts as an
 * attempt. This blind choice is what produces the paper's high drop
 * counts even at modest loads.
 */

#ifndef MEDIAWORM_PCS_CONNECTION_TABLE_HH
#define MEDIAWORM_PCS_CONNECTION_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "pcs/pcs_config.hh"
#include "sim/ids.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace mediaworm::pcs {

/** One established circuit. */
struct Connection
{
    sim::StreamId stream;
    sim::NodeId src;
    sim::NodeId dst;
    int srcVc = -1;  ///< Reserved VC on the source link.
    int dstVc = -1;  ///< Reserved VC on the destination link.
    sim::Tick vtick = 0; ///< Reserved per-flit service interval.
};

/** Tracks VC reservations and attempt statistics. */
class ConnectionTable
{
  public:
    /**
     * @param cfg PCS configuration (ports, VCs, retry budget).
     */
    explicit ConnectionTable(const PcsConfig& cfg);

    /**
     * Attempts to establish a connection from @p src to a uniformly
     * drawn destination, retrying with fresh random choices until a
     * probe succeeds or the per-connection attempt budget runs out.
     *
     * @param src Source endpoint.
     * @param vtick Bandwidth reservation carried by the probe.
     * @param rng Random stream for destination and VC draws.
     * @return The established connection, or nullopt if every
     *         attempt in the budget was dropped.
     */
    std::optional<Connection> establish(sim::NodeId src,
                                        sim::Tick vtick, sim::Rng& rng);

    /** Looks up a connection by stream id; nullptr if unknown. */
    const Connection* find(sim::StreamId stream) const;

    /** All live connections. */
    const std::vector<Connection>& connections() const
    {
        return connections_;
    }

    /** Probes sent (every retry counts). */
    std::uint64_t attempts() const { return attempts_; }

    /** Probes that reserved a full path. */
    std::uint64_t established() const { return established_; }

    /** Probes nacked and dropped. */
    std::uint64_t dropped() const { return dropped_; }

    /** Reserved VCs on node @p node's source link. */
    int sourceOccupancy(int node) const;

    /** Reserved VCs on node @p node's destination link. */
    int destinationOccupancy(int node) const;

  private:
    PcsConfig cfg_;
    /** srcBusy_[node*numVcs + vc] - source-link VC reservations. */
    std::vector<bool> srcBusy_;
    /** dstBusy_[node*numVcs + vc] - destination-link reservations. */
    std::vector<bool> dstBusy_;
    std::vector<Connection> connections_;

    std::uint64_t attempts_ = 0;
    std::uint64_t established_ = 0;
    std::uint64_t dropped_ = 0;
    std::int32_t nextStreamId_ = 0;
};

} // namespace mediaworm::pcs

#endif // MEDIAWORM_PCS_CONNECTION_TABLE_HH
