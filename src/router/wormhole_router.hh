/**
 * @file
 * The MediaWorm wormhole router (Section 3 of the paper).
 *
 * Models the five-stage PROUD pipeline as an event-driven network of
 * rate-1-flit-per-cycle servers around the three contention points of
 * Figure 2:
 *
 *   (A) the crossbar input multiplexer (multiplexed crossbars) - one
 *       per input port, serving that port's VCs under the configured
 *       scheduling discipline (Virtual Clock for MediaWorm, FIFO for
 *       the conventional baseline);
 *   (B) the crossbar output port - a capacity-one server per output
 *       port enforcing one flit per cycle through the switch column;
 *   (C) the virtual-channel output multiplexer - one per output
 *       physical channel, sharing link bandwidth among the output
 *       VCs. For full crossbars (which have no input multiplexer)
 *       the configured discipline applies here instead.
 *
 * Wormhole semantics: a header flit traverses stages 1-3 (routing +
 * switch arbitration), then acquires its message's output VC and
 * holds it until the tail flit leaves stage 5. Body flits bypass
 * stages 2-3. Flow control is credit-based on every buffer.
 */

#ifndef MEDIAWORM_ROUTER_WORMHOLE_ROUTER_HH
#define MEDIAWORM_ROUTER_WORMHOLE_ROUTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/router_config.hh"
#include "router/arbiter.hh"
#include "router/flit.hh"
#include "router/link.hh"
#include "router/virtual_clock.hh"
#include "sim/event.hh"
#include "sim/ring.hh"
#include "sim/simulator.hh"
#include "sim/tracer.hh"
#include "stats/registry.hh"

namespace mediaworm::router {

/**
 * Output-port candidates for one destination, as produced by the
 * routing-policy layer (network/routing.hh).
 *
 * Each candidate pairs an output port with a VC class. Class -1 is
 * the legacy mapping (output VC = the header's vcLane verbatim);
 * class c >= 0 maps the message into the c-th band of the output VCs
 * (out_vc = c * lanes + vcLane % lanes, lanes = numVcs / the route
 * table's class count).
 * VC classes are how the deterministic policies stay deadlock-free
 * on wrapped topologies (torus dateline classes) and how adaptive
 * routing keeps its escape subnetwork separate.
 */
struct RouteCandidates
{
    /** How the router picks among multiple candidates. */
    enum class Select : std::uint8_t {
        /** Least-loaded output port (fat channels, Clos up-phase). */
        LeastLoaded,
        /** Uniform draw from the router's pick RNG (the Random
         *  fat-link policy). */
        Random,
        /**
         * Candidates 0..count-2 are adaptive choices taken only when
         * their mapped output VC is free right now (unallocated, and
         * every downstream credit back); the last
         * candidate is the escape route (always grantable order
         * exists because the escape dependency graph is acyclic).
         * Allocation waits therefore only ever happen on escape VCs.
         */
        AdaptiveEscape,
    };

    std::array<int, config::kMaxRouteCandidates> ports{};
    std::array<std::int8_t, config::kMaxRouteCandidates> vcClasses{
        -1, -1, -1, -1};
    int count = 0;
    Select select = Select::LeastLoaded;

    /** Convenience factory for a single-port route. */
    static RouteCandidates
    single(int port, int vc_class = -1)
    {
        RouteCandidates rc;
        rc.ports[0] = port;
        rc.vcClasses[0] = static_cast<std::int8_t>(vc_class);
        rc.count = 1;
        return rc;
    }
};

/** Destination -> candidate-ports table, indexed by node id. */
using RouteTable = std::vector<RouteCandidates>;

/**
 * An 8x8-class pipelined wormhole router with pluggable scheduling.
 *
 * Hot-path organization (DESIGN.md section 13): every router event
 * is a sim::MemberFuncEvent bound to its port (and VC) whose final
 * fire() calls its method directly; the router is its links' flit
 * and credit receiver, told the port on each call (router/link.hh),
 * and a sim::LazyDrain - idle multiplexer
 * wakeups are elided via sim::LazyTick. Per-VC scalars read by the
 * serve loops (output credits, reserved slots, occupancy, Virtual Clock
 * state, allocation bits) live in flat struct-of-arrays members
 * indexed [port * numVcs + vc], so one arbiter round touches a few
 * contiguous cache lines instead of pointer-chasing through fat
 * per-VC structs.
 */
class WormholeRouter final : public FlitReceiver,
                             public CreditReceiver,
                             public sim::LazyDrain
{
  public:
    /**
     * @param simulator Owning simulation kernel.
     * @param cfg Validated hardware configuration.
     * @param name Diagnostic name ("router0").
     */
    WormholeRouter(sim::Simulator& simulator,
                   const config::RouterConfig& cfg, std::string name);

    WormholeRouter(const WormholeRouter&) = delete;
    WormholeRouter& operator=(const WormholeRouter&) = delete;

    /**
     * Attaches the link that feeds input port @p port and allocates
     * the port's VC buffers (a port no link feeds holds no flit
     * storage). The router registers itself as the link's flit
     * receiver for @p port and uses the link to return buffer
     * credits upstream.
     */
    void connectInputLink(int port, Link& link);

    /**
     * Attaches the link driven by output port @p port and allocates
     * the port's VC buffers. @p downstream_buffer_depth initializes
     * the credit counters (the input buffer capacity of whatever sits
     * across the link).
     */
    void connectOutputLink(int port, Link& link,
                           int downstream_buffer_depth);

    /** Attaches the link from output port @p port to an NI sink,
     *  which drains on arrival: the port spends no credits, so its
     *  VCs never starve and the cut-through gate always passes. */
    void
    connectSinkLink(int port, Link& link)
    {
        connectOutputLink(port, link, cfg_.flitBufferDepth);
        outputAt(port).sink = true;
    }

    /**
     * Installs the route table, which must cover every destination
     * node id; headers route with one array load. @p vc_classes is
     * the number of VC classes the table's candidates name (in
     * [1, numVcs]); each class owns numVcs / vc_classes output VCs.
     * @p pick_rng draws the Select::Random picks. Must be set before
     * traffic.
     */
    void setRouteTable(RouteTable table, int vc_classes = 1,
                       sim::Rng pick_rng = sim::Rng());

    /**
     * Panics, naming this router, the destination and the port, if
     * any route-table candidate names an output port without a link
     * (and so without buffers). Call once wiring is complete.
     */
    void checkRoutesWired() const;

    /** Hardware configuration. */
    const config::RouterConfig& cfg() const { return cfg_; }

    /** Diagnostic name. */
    const std::string& name() const { return name_; }

    /**
     * Aggregate buffered-flit count of output port @p port; the
     * load signal used for fat-link selection.
     */
    int outputLoad(int port) const;

    /** Total flits that left the router since construction. */
    std::uint64_t flitsForwarded() const { return flitsForwarded_; }

    /** Total headers routed since construction. */
    std::uint64_t headersRouted() const { return headersRouted_; }

    /** Messages that had to wait for output-VC allocation. */
    std::uint64_t allocationWaits() const { return allocationWaits_; }

    /** Credits output VC (@p port, @p vc) holds for the buffer
     *  downstream (applied credits only; see Link::creditsInFlight). */
    int
    outputCredits(int port, int vc) const
    {
        return outCredits_[vcIndex(port, vc)];
    }

    /** A flit arrived on input port @p port 's link (FlitReceiver). */
    void receiveFlit(int port, const Flit& flit, int vc) override;

    /** A credit came back on output port @p port 's link at its due
     *  tick (CreditReceiver): applies it and reacts at once. */
    void creditReturned(int port, int vc) override;

    /** Output VCs of @p port that wait on a credit: a buffered
     *  flit with none, or a cut-through header the credit gate holds
     *  back (Link::awaitCredit). */
    std::uint64_t
    starvedVcs(int port) const override
    {
        const auto p = static_cast<std::size_t>(port);
        return starvedMask_[p] | gateMask_[p];
    }

    /** Flits buffered in input VC (@p port, @p vc). */
    int
    inputOccupancy(int port, int vc) const
    {
        return static_cast<int>(vcAt(inputAt(port), vc).buffer.size());
    }

    /** Runtime sanity check: verifies queue/credit invariants. */
    void checkInvariants() const;

    // sim::LazyDrain: end-of-run accounting for elided mux wakeups.
    std::uint64_t flushLazy(sim::Tick until) override;
    bool lazyPending() const override;

    /**
     * Test-only: corrupts the state of input VC (@p port, @p vc) so
     * the next checkInvariants() panics, exercising the crash path
     * (flight-recorder dump, contextual panic message). Never call
     * outside tests - the router is unusable afterwards.
     */
    void debugCorruptVcForTest(int port, int vc);

    /**
     * Registers this router's counters under "<name>." in
     * @p registry for end-of-run reporting.
     */
    void registerStats(stats::Registry& registry) const;

    /**
     * Attaches a flit tracer; @p location identifies this router in
     * the records. Pass nullptr to detach.
     */
    void
    setTracer(sim::Tracer* tracer, int location)
    {
        tracer_ = tracer;
        traceLocation_ = location;
    }

  private:
    /** Identifies one input VC. */
    struct InputVcKey
    {
        int port;
        int vc;
    };

    /** No input VC: the empty value of the intrusive waiter links. */
    static constexpr int kNoVc = -1;

    struct OutputVc;
    struct OutputPort;

    // --- pipeline actions -------------------------------------------------
    // (Declared ahead of the port/VC structs so their events can name
    // them as template arguments.)
    void startRouting(int port, int vc);
    void routeComputed(int port, int vc);
    void requestOutputVc(int port, int vc, int out_port, int out_vc);
    /** Grants the VC to its oldest waiter if the allocation (and,
     *  for cut-through, the downstream-space gate) permits. */
    bool tryGrantNextWaiter(int out_port, int out_vc);
    void grantOutputVc(InputVcKey key, int out_port, int out_vc);
    void finishInputMessage(InputVcKey key);

    // Point A (multiplexed crossbar).
    void kickInputMux(int port);
    void serveInputMux(int port);
    /** Input-mux service slot elapsed: serve the next flit. */
    void inputMuxFired(int port);

    // Full crossbar: per-VC private server.
    void kickInputVcServer(int port, int vc);
    void serveInputVc(int port, int vc);
    /** Per-VC crossbar server finished its in-flight flit. */
    void vcServeFired(int port, int vc);

    // Point B.
    void xbarDeliver(int out_port);
    /** Stamps @p flit in place and copies it into the output VC
     *  buffer; the caller's flit is consumed. */
    void depositIntoOutputVc(int out_port, int out_vc, Flit& flit);

    // Point C.
    void kickOutputMux(int port);
    void serveOutputMux(int port);
    /** Output-mux service slot elapsed: serve the next flit. */
    void outputMuxFired(int port);

    /** Lifecycle of the message occupying an input VC. */
    enum class InputVcState : std::uint8_t {
        Idle,      ///< No message present.
        Routing,   ///< Header in stages 2-3.
        WaitingVc, ///< Output VC busy; message blocked (wormhole).
        Active,    ///< Output VC held; flits may flow.
    };

    struct InputVc
    {
        /** Bounded at cfg_.flitBufferDepth by the router. */
        sim::Ring<Flit> buffer;
        InputVcState state = InputVcState::Idle;
        int outPort = -1;
        int outVc = -1;
        // Direct pointers to the granted output port/VC, valid while
        // state == Active (ports and their VC vectors never move
        // after construction). The input-mux gate loop runs once per
        // ready VC per mux round; these save the index arithmetic,
        // and outFlatIdx is the matching [port * numVcs + vc] index
        // into the output-side SoA arrays.
        OutputPort* outPortPtr = nullptr;
        OutputVc* outVcPtr = nullptr;
        std::size_t outFlatIdx = 0;
        sim::Tick vtick = kBestEffortVtick; ///< Current message's rate.
        /// Fires when stages 2-3 finish.
        sim::MemberFuncEvent<&WormholeRouter::routeComputed> routeEvent;
        // Full-crossbar mode: this VC's private crossbar input server.
        sim::MemberFuncEvent<&WormholeRouter::vcServeFired> serveEvent;
        bool serverBusy = false;
        Flit inFlight;            ///< Flit traversing the crossbar.
        int inFlightOutPort = -1; ///< Destination of the in-flight flit.
        int inFlightOutVc = -1;
        /** Next waiter on the allocation FIFO of the output VC this
         *  VC waits for (flat [port * numVcs + vc] index). An input VC
         *  waits for at most one output VC at a time (WaitingVc), so
         *  one link threads it through that VC's FIFO. */
        int allocNext = kNoVc;
    };

    struct InputPort
    {
        // Fixed array: InputVc embeds events and cannot be moved.
        std::unique_ptr<InputVc[]> vcs;
        Link* link = nullptr; ///< For returning credits upstream.
        // Point A (multiplexed mode) arbitration state lives in the
        // router-level inputArb_ (one MultiPortArbiter across all
        // input muxes); eligibility bit v = VC v is Active with a
        // buffered head flit; the serve-time space/crossbar gates
        // prune further.
        sim::MemberFuncEvent<&WormholeRouter::inputMuxFired> muxEvent;
        sim::LazyTick mux; ///< Service-slot state; elides idle ticks.
    };

    /**
     * Output-VC cold state. The hot scalars the serve loops read
     * (credits, reserved slots, occupancy, Virtual Clock state,
     * allocation) live in the flat SoA arrays below, indexed
     * [port * numVcs + vc]. Waiters are flat input-VC indices.
     */
    struct OutputVc
    {
        /** Bounded at cfg_.flitBufferDepth by the router. */
        sim::Ring<Flit> buffer;
        /** Input VCs waiting to be granted this VC, oldest first:
         *  an intrusive FIFO linked through InputVc::allocNext. */
        int allocHead = kNoVc;
        int allocTail = kNoVc;
        /**
         * The input VC parked until this VC's buffer frees a slot.
         * Only the message holding this VC feeds its buffer, so at
         * most one input VC - the holder - can wait on its space.
         */
        int spaceWaiter = kNoVc;
    };

    struct OutputPort
    {
        std::vector<OutputVc> vcs;
        Link* link = nullptr;
        /** Per-VC buffer depth behind the link (checkInvariants). */
        int downstreamDepth = 0;
        /** Feeds an NI sink: sending spends no credit. */
        bool sink = false;
        // Point B: the crossbar output port (capacity-one server).
        // Its busy bit lives in the router-level xbarBusyMask_ (and
        // the blocked-mux set in xbarWaiters_), so the input-mux gate
        // loop tests it without dereferencing this struct.
        Flit xbarFlit;
        int xbarFlitVc = -1;
        sim::MemberFuncEvent<&WormholeRouter::xbarDeliver> xbarEvent;
        // Point C: the VC output multiplexer driving the link; its
        // arbitration state lives in the router-level outputArb_.
        // Eligibility bit v = VC v has a buffered flit and a credit.
        sim::MemberFuncEvent<&WormholeRouter::outputMuxFired> muxEvent;
        sim::LazyTick mux; ///< Service-slot state; elides idle ticks.
        std::uint64_t nextArrivalSeq = 0;
    };

    // --- lazy link credits (router/link.hh) ------------------------------

    /** Applies output port @p port 's credits due at or before
     *  @p until, without creditReturned()'s kick. */
    void collectCredits(int port, sim::Tick until);

    /** Applies the credits due now; call before reading outCredits_. */
    void collectCredits(int port) { collectCredits(port, simulator_.now()); }

    void registerSpaceWaiter(OutputVc& ovc, InputVcKey key);
    void wakeSpaceWaiter(OutputVc& ovc);

    // --- eligibility-mask maintenance (DESIGN.md section 9) ---------------
    // Re-evaluates one slot's bit from current state; called at every
    // event that can change that state, so the serve loops never
    // rescan all VCs.

    /** Input bit v = (state == Active && buffer non-empty). */
    void
    refreshInputEligibility(int port, int vc)
    {
        const InputVc& ivc = vcAt(inputAt(port), vc);
        if (ivc.state == InputVcState::Active && !ivc.buffer.empty())
            inputArb_.setEligible(port, vc, ivc.buffer.front());
        else
            inputArb_.clearEligible(port, vc);
    }

    /** Output bit v = (buffer non-empty && credits > 0); starved
     *  bit v = (buffer non-empty && no credit), whose rise asks the
     *  link for the credit event. */
    void
    refreshOutputEligibility(int port, int vc)
    {
        OutputPort& op = outputAt(port);
        const OutputVc& ovc = vcAt(op, vc);
        const std::uint64_t bit = std::uint64_t{1}
            << static_cast<unsigned>(vc);
        std::uint64_t& starved =
            starvedMask_[static_cast<std::size_t>(port)];
        if (ovc.buffer.empty()) {
            outputArb_.clearEligible(port, vc);
            starved &= ~bit;
        } else if (outCredits_[vcIndex(port, vc)] > 0) {
            outputArb_.setEligible(port, vc, ovc.buffer.front());
            starved &= ~bit;
        } else {
            outputArb_.clearEligible(port, vc);
            if ((starved & bit) == 0) {
                starved |= bit;
                op.link->awaitCredit();
            }
        }
    }

    /**
     * Re-derives output port @p port 's whole eligibility mask in one
     * pass over the SoA occupancy/credit arrays - a handful of
     * contiguous cache lines for any VC count. The incremental
     * refreshes above keep the arbiter's mask equal to this at every
     * quiescent point; checkInvariants() asserts exactly that.
     */
    std::uint64_t
    computeOutputMask(int port) const
    {
        const std::size_t base = vcIndex(port, 0);
        std::uint64_t mask = 0;
        for (int v = 0; v < cfg_.numVcs; ++v) {
            const std::size_t i = base + static_cast<std::size_t>(v);
            if (outOccupancy_[i] > 0 && outCredits_[i] > 0)
                mask |= std::uint64_t{1} << static_cast<unsigned>(v);
        }
        return mask;
    }

    // --- indexing helpers (keep signed port/vc ids out of the
    // unsigned-cast business everywhere else) ------------------------------
    InputPort&
    inputAt(int port)
    {
        return inputs_[static_cast<std::size_t>(port)];
    }
    const InputPort&
    inputAt(int port) const
    {
        return inputs_[static_cast<std::size_t>(port)];
    }
    OutputPort&
    outputAt(int port)
    {
        return outputs_[static_cast<std::size_t>(port)];
    }
    const OutputPort&
    outputAt(int port) const
    {
        return outputs_[static_cast<std::size_t>(port)];
    }
    static InputVc&
    vcAt(InputPort& ip, int vc)
    {
        return ip.vcs[static_cast<std::size_t>(vc)];
    }
    static const InputVc&
    vcAt(const InputPort& ip, int vc)
    {
        return ip.vcs[static_cast<std::size_t>(vc)];
    }
    static OutputVc&
    vcAt(OutputPort& op, int vc)
    {
        return op.vcs[static_cast<std::size_t>(vc)];
    }
    static const OutputVc&
    vcAt(const OutputPort& op, int vc)
    {
        return op.vcs[static_cast<std::size_t>(vc)];
    }

    /** Flat [port * numVcs + vc] index into the per-VC SoA arrays. */
    std::size_t
    vcIndex(int port, int vc) const
    {
        return static_cast<std::size_t>(port)
            * static_cast<std::size_t>(cfg_.numVcs)
            + static_cast<std::size_t>(vc);
    }

    /** Flat index of an input VC, as stored in the waiter links. */
    int
    waiterId(InputVcKey key) const
    {
        return key.port * cfg_.numVcs + key.vc;
    }

    /** Inverse of waiterId(). */
    InputVcKey
    waiterKey(int id) const
    {
        return {id / cfg_.numVcs, id % cfg_.numVcs};
    }

    /** The input VC a waiter link names. */
    InputVc&
    waiterVc(int id)
    {
        const InputVcKey key = waiterKey(id);
        return vcAt(inputAt(key.port), key.vc);
    }
    const InputVc&
    waiterVc(int id) const
    {
        const InputVcKey key = waiterKey(id);
        return vcAt(inputAt(key.port), key.vc);
    }

    sim::Tick cycle() const { return cycleTime_; }

    sim::Simulator& simulator_;
    config::RouterConfig cfg_;
    std::string name_;
    sim::Tick cycleTime_;

    RouteTable routeTable_;
    /** Output VCs per VC class: numVcs / the route table's class
     *  count. */
    int classLanes_;
    sim::Rng pickRng_; ///< Draws Select::Random candidates.

    // Fixed arrays: ports embed events and cannot be moved.
    std::unique_ptr<InputPort[]> inputs_;
    std::unique_ptr<OutputPort[]> outputs_;

    // --- data-oriented per-VC hot state (DESIGN.md section 13) ------------
    // Flat [port * numVcs + vc] arrays for the scalars the serve
    // loops and the fat-channel load signal read every round; the
    // cold per-VC state (buffers, waiter links) stays in the structs.

    /** Downstream buffer slots available per output VC: the credits
     *  applied so far (more may wait in the link's credit pipe). */
    std::vector<int> outCredits_;
    /** Per-port bitmask: bit v = output VC v holds a flit but no
     *  credit (maintained by refreshOutputEligibility()). */
    std::vector<std::uint64_t> starvedMask_;
    /** Per-port bitmask: bit v = output VC v is free but its oldest
     *  waiter's header is held back by the cut-through credit gate
     *  (maintained by tryGrantNextWaiter()). */
    std::vector<std::uint64_t> gateMask_;
    /** Output-buffer slots claimed by flits in the crossbar. */
    std::vector<int> outReserved_;
    /** Mirror of each output VC buffer's size (checked in
     *  checkInvariants); keeps outputLoad()/computeOutputMask() on
     *  the SoA arrays only. */
    std::vector<int> outOccupancy_;
    /** Point-C Virtual Clock stamping state per output VC. */
    std::vector<VirtualClockState> outVclock_;
    /** Point-A Virtual Clock stamping state per input VC. */
    std::vector<VirtualClockState> inVclock_;
    /** Per-port allocation bitmask: bit v = output VC v held by a
     *  message (replaces a bool strewn across fat structs; popcount
     *  gives outputLoad its allocation term in one instruction). */
    std::vector<std::uint64_t> allocatedMask_;
    // Arbitration (DESIGN.md section 14): all point-A and point-C
    // multiplexers of this router share two MultiPortArbiter
    // instances - per-port masks and HeadKey rows in flat arrays - so
    // the serve loops index shared storage instead of per-port
    // objects.
    MultiPortArbiter inputArb_;  ///< Point A, one mux per input port.
    MultiPortArbiter outputArb_; ///< Point C, one mux per output port.
    /** Bit p = output port p's crossbar server holds a flit. The gate
     *  loop in serveInputMux() tests every candidate VC's crossbar
     *  availability against this one word. */
    std::uint64_t xbarBusyMask_ = 0;
    /** Per-output-port bitmask of input muxes blocked on its crossbar
     *  server; drained (and cleared) by xbarDeliver(). */
    std::vector<std::uint64_t> xbarWaiters_;

    std::uint64_t nextInputSeq_ = 0;

    std::uint64_t flitsForwarded_ = 0;
    std::uint64_t headersRouted_ = 0;
    std::uint64_t allocationWaits_ = 0;

    sim::Tracer* tracer_ = nullptr;
    int traceLocation_ = -1;
};

} // namespace mediaworm::router

#endif // MEDIAWORM_ROUTER_WORMHOLE_ROUTER_HH
