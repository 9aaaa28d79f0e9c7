/**
 * @file
 * Endpoint network interface.
 *
 * Injection side: per-VC message queues (host memory, unbounded), a
 * FIFO multiplexer onto the injection link - the paper applies
 * Virtual Clock inside the router, and hosts drain their queues in
 * arrival order, so best-effort messages are not starved at
 * injection - and credit flow control against the router's input
 * buffers. The queues hold one record per message; each VC builds
 * only its next flit, so host memory grows with queued messages, not
 * queued flits.
 *
 * Ejection side: a sink that drains flits on arrival, so it returns
 * no credits (WormholeRouter::connectSinkLink), reassembles frame
 * completions from tail flits and reports them to the MetricsHub.
 */

#ifndef MEDIAWORM_NETWORK_NETWORK_INTERFACE_HH
#define MEDIAWORM_NETWORK_NETWORK_INTERFACE_HH

#include <memory>
#include <string>
#include <vector>

#include "config/router_config.hh"
#include "network/metrics.hh"
#include "router/arbiter.hh"
#include "router/flit.hh"
#include "router/link.hh"
#include "sim/event.hh"
#include "sim/ring.hh"
#include "sim/simulator.hh"
#include "sim/tracer.hh"
#include "traffic/stream.hh"

namespace mediaworm::network {

/**
 * One endpoint's injection/ejection machinery.
 *
 * Its one event is the injection-mux wakeup. Like the router's mux
 * wakeups, it takes part in lazy-tick elision (a wakeup with nothing
 * eligible is skipped but still counted as fired; sim::LazyDrain
 * settles the accounting). Per-VC credits live in a flat array
 * (DESIGN.md section 13).
 */
class NetworkInterface final : public traffic::Injector,
                               public router::FlitReceiver,
                               public router::CreditReceiver,
                               public sim::LazyDrain
{
  public:
    /**
     * @param simulator Owning kernel.
     * @param node This endpoint's id.
     * @param cfg Router configuration (VC count, cycle time, flit
     *            size, switching discipline).
     * @param metrics Shared measurement hub.
     * @param name Diagnostic name.
     */
    NetworkInterface(sim::Simulator& simulator, sim::NodeId node,
                     const config::RouterConfig& cfg, MetricsHub& metrics,
                     std::string name);

    /**
     * Attaches the injection link towards the router. The NI
     * registers as the link's credit receiver; @p router_buffer_depth
     * initializes per-VC credits.
     */
    void connectInjectionLink(router::Link& link,
                              int router_buffer_depth);

    /** This endpoint's id. */
    sim::NodeId node() const { return node_; }

    // traffic::Injector
    void injectMessage(const traffic::MessageDesc& message) override;

    // router::FlitReceiver (ejection sink) and router::CreditReceiver
    // (injection credits); an NI has one link each way, so it
    // ignores the port.
    void receiveFlit(int port, const router::Flit& flit,
                     int vc) override;
    void creditReturned(int port, int vc) override;
    std::uint64_t starvedVcs(int) const override { return starvedMask_; }

    // sim::LazyDrain: end-of-run accounting for elided mux wakeups.
    std::uint64_t flushLazy(sim::Tick until) override;
    bool lazyPending() const override;

    /** Flits of host-queued messages not yet put on the link. */
    std::uint64_t backlogFlits() const;

    /** Attaches a flit tracer; nullptr detaches. */
    void setTracer(sim::Tracer* tracer) { tracer_ = tracer; }

    /** Credits VC @p vc holds for the router's input buffer
     *  (applied credits only; see Link::creditsInFlight). */
    int
    credits(int vc) const
    {
        return credits_[static_cast<std::size_t>(vc)];
    }

    /** Flits injected onto the link since construction. */
    std::uint64_t flitsInjected() const { return flitsInjected_; }

  private:
    /** A queued message: its descriptor, creation time and the
     *  arrival sequence number reserved for its header flit (flit i
     *  takes firstSeq + i). */
    struct PendingMessage
    {
        sim::Tick vtick = router::kBestEffortVtick;
        sim::Tick injectTime = 0;
        std::uint64_t firstSeq = 0;
        sim::StreamId stream;
        sim::NodeId dest;
        std::int32_t message = 0;
        std::int32_t numFlits = 0;
        router::TrafficClass cls = router::TrafficClass::BestEffort;
        bool endOfFrame = false;
    };

    /** Per-VC cold state; the hot credit counters live in the flat
     *  array below. */
    struct InjectionVc
    {
        sim::Ring<PendingMessage> messages; ///< Unbounded host queue.
        /** The front message's next flit, valid while messages is
         *  non-empty. */
        router::Flit next;
    };

    /** Loads the front message's header flit into @p vc.next. */
    void loadHeader(int vc_index);

    /**
     * Applies the injection link's credits due at or before
     * @p until (router/link.hh), without creditReturned()'s kick;
     * call with now() before reading credits_.
     */
    void collectCredits(sim::Tick until);

    void kickMux();
    void serveMux();
    /** Mux service slot elapsed: serve the next flit. */
    void muxFired();

    /**
     * Re-derives VC @p vc 's eligibility bit: a queued head flit, a
     * credit, and (for virtual cut-through headers) enough credits to
     * launch the whole message. Called on enqueue, credit return and
     * after every send - the only events that move the predicate. A
     * queued VC that is not eligible is starved: it waits on a
     * credit, and asks the link for the credit event.
     */
    void refreshEligibility(int vc);

    sim::Simulator& simulator_;
    sim::NodeId node_;
    config::RouterConfig cfg_;
    /** This node's measurement lane, resolved once: during a sharded
     *  run only this shard touches it, so recording needs no locks. */
    MetricsLane* lane_;
    std::string name_;
    sim::Tick cycleTime_;

    std::vector<InjectionVc> vcs_;
    // Data-oriented per-VC hot state, indexed by VC lane.
    std::vector<int> credits_;
    /** Bit v = lane v has a queued flit it may not send for want of
     *  credits (see refreshEligibility()). */
    std::uint64_t starvedMask_ = 0;
    /** The injection mux: one FIFO port, one slot per VC lane. */
    router::MultiPortArbiter arb_;
    sim::MemberFuncEvent<&NetworkInterface::muxFired> muxEvent_;
    sim::LazyTick mux_; ///< Service-slot state; elides idle ticks.
    std::uint64_t nextArrivalSeq_ = 0;
    std::uint64_t backlogFlits_ = 0; ///< Queued flits not yet sent.

    router::Link* injectionLink_ = nullptr;
    int routerBufferDepth_ = 0;
    sim::Tracer* tracer_ = nullptr;

    std::uint64_t flitsInjected_ = 0;
};

} // namespace mediaworm::network

#endif // MEDIAWORM_NETWORK_NETWORK_INTERFACE_HH
