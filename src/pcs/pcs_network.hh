/**
 * @file
 * Single-switch Pipelined Circuit Switching data path (Section 3.5).
 *
 * After a probe reserves a VC on the source and destination links
 * (ConnectionTable), the stream's flits flow along the fixed circuit
 * with no per-hop arbitration. The contended resources are the two
 * physical channels: the source link multiplexes the node's outgoing
 * connections and the destination link multiplexes the connections
 * terminating at that node, each served one flit per cycle under a
 * rate-proportional (Virtual Clock) discipline with the reservation
 * made at setup. Per-connection router buffers apply credit-based
 * backpressure to the source.
 */

#ifndef MEDIAWORM_PCS_PCS_NETWORK_HH
#define MEDIAWORM_PCS_PCS_NETWORK_HH

#include <memory>
#include <vector>

#include "config/traffic_config.hh"
#include "network/metrics.hh"
#include "pcs/connection_table.hh"
#include "pcs/pcs_config.hh"
#include "router/arbiter.hh"
#include "router/flit.hh"
#include "router/link.hh"
#include "router/virtual_clock.hh"
#include "sim/event.hh"
#include "sim/ring.hh"
#include "sim/simulator.hh"
#include "traffic/stream.hh"

namespace mediaworm::pcs {

/**
 * The PCS switch plus all endpoint source/sink machinery. It is the
 * flit receiver of every circuit's link, told the destination node,
 * and the credit receiver, told the source node (router/link.hh).
 */
class PcsNetwork final : public traffic::Injector,
                         public router::FlitReceiver,
                         public router::CreditReceiver
{
  public:
    /**
     * @param simulator Owning kernel.
     * @param cfg PCS configuration.
     * @param metrics Shared measurement hub; deliveries are
     *        recorded in its lane 0 (one delivery point).
     */
    PcsNetwork(sim::Simulator& simulator, const PcsConfig& cfg,
               network::MetricsHub& metrics);

    PcsNetwork(const PcsNetwork&) = delete;
    PcsNetwork& operator=(const PcsNetwork&) = delete;

    /** Probe bookkeeping and VC reservations. */
    ConnectionTable& table() { return table_; }

    /**
     * Wires the queues, buffers and credit loop of an established
     * connection. Must be called once per connection before traffic.
     */
    void registerConnection(const Connection& connection);

    /**
     * Builds the traffic::Stream descriptor driving a FrameSource
     * over @p connection.
     */
    traffic::Stream makeStream(const Connection& connection,
                               const config::TrafficConfig& traffic,
                               sim::Rng& rng) const;

    // traffic::Injector - resolves the connection from the stream id.
    void injectMessage(const traffic::MessageDesc& message) override;

    /** A circuit's flit reached destination node @p node 's link. */
    void receiveFlit(int node, const router::Flit& flit,
                     int vc) override;

    /** A credit came back to source node @p node. */
    void creditReturned(int node, int vc) override;

    /** The PCS source mux never collects credits itself, so it takes
     *  each one from the link's event as it falls due. */
    std::uint64_t starvedVcs(int) const override { return kAllVcs; }

    /** Flits delivered to sinks. */
    std::uint64_t flitsDelivered() const { return flitsDelivered_; }

  private:
    // (Declared ahead of the unit structs so their mux events can
    // name them as template arguments.)
    /** Re-derives one VC's mux eligibility and cached head. */
    void refreshSource(int node, int vc);
    void refreshDest(int node, int vc);
    void kickSourceMux(int node);
    void serveSourceMux(int node);
    /** Source-mux service slot elapsed: serve the next flit. */
    void sourceMuxFired(int node);
    void kickDestMux(int node);
    void serveDestMux(int node);
    /** Destination-mux service slot elapsed: serve the next flit. */
    void destMuxFired(int node);

    struct SourceVc
    {
        bool active = false;
        sim::Ring<router::Flit> queue; ///< Unbounded host queue.
        int credits = 0;
        int dstVc = -1;
        router::VirtualClockState vclock;
        router::Link* link = nullptr;
    };

    struct SourceUnit
    {
        std::unique_ptr<SourceVc[]> vcs;
        sim::MemberFuncEvent<&PcsNetwork::sourceMuxFired> muxEvent;
        bool muxBusy = false;
        std::uint64_t nextSeq = 0;
    };

    struct DestVc
    {
        bool active = false;
        /** Bounded at cfg_.flitBufferDepth by the credit loop. */
        sim::Ring<router::Flit> buffer;
        int srcVc = -1;
        router::VirtualClockState vclock;
        router::Link* link = nullptr; ///< For credit return.
    };

    struct DestUnit
    {
        std::unique_ptr<DestVc[]> vcs;
        sim::MemberFuncEvent<&PcsNetwork::destMuxFired> muxEvent;
        bool muxBusy = false;
        std::uint64_t nextSeq = 0;
    };

    sim::Simulator& simulator_;
    PcsConfig cfg_;
    network::MetricsLane& lane_;
    sim::Tick cycleTime_;
    ConnectionTable table_;

    std::unique_ptr<SourceUnit[]> sources_;
    std::unique_ptr<DestUnit[]> dests_;
    // Every node's source and destination link muxes, port = node.
    router::MultiPortArbiter sourceArb_; ///< Eligible: queued, credited.
    router::MultiPortArbiter destArb_;   ///< Eligible: buffered.
    std::vector<std::unique_ptr<router::Link>> links_;

    /** stream id -> connection (index assigned by ConnectionTable). */
    std::vector<Connection> byStream_;

    std::uint64_t flitsDelivered_ = 0;
};

} // namespace mediaworm::pcs

#endif // MEDIAWORM_PCS_PCS_NETWORK_HH
