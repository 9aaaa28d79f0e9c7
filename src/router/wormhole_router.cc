#include "router/wormhole_router.hh"

#include <bit>

#include "sim/logging.hh"

namespace mediaworm::router {

namespace {

// Event class names; perfbench attributes host time by them.
constexpr const char* kPortEventName = "RouterPortEvent";
constexpr const char* kVcEventName = "RouterVcEvent";

} // namespace

WormholeRouter::WormholeRouter(sim::Simulator& simulator,
                               const config::RouterConfig& cfg,
                               std::string name)
    : simulator_(simulator), cfg_(cfg), name_(std::move(name)),
      cycleTime_(cfg.cycleTime()), classLanes_(cfg.numVcs)
{
    cfg_.validate();

    const int n = cfg_.numPorts;
    const int m = cfg_.numVcs;

    inputs_ = std::make_unique<InputPort[]>(static_cast<std::size_t>(n));
    outputs_ =
        std::make_unique<OutputPort[]>(static_cast<std::size_t>(n));

    const std::size_t total = static_cast<std::size_t>(n)
        * static_cast<std::size_t>(m);
    outCredits_.assign(total, 0);
    starvedMask_.assign(static_cast<std::size_t>(n), 0);
    gateMask_.assign(static_cast<std::size_t>(n), 0);
    outReserved_.assign(total, 0);
    outOccupancy_.assign(total, 0);
    outVclock_.assign(total, VirtualClockState{});
    inVclock_.assign(total, VirtualClockState{});
    allocatedMask_.assign(static_cast<std::size_t>(n), 0);
    xbarWaiters_.assign(static_cast<std::size_t>(n), 0);

    for (int p = 0; p < n; ++p) {
        InputPort& ip = inputAt(p);
        ip.vcs = std::make_unique<InputVc[]>(
            static_cast<std::size_t>(m));
        for (int v = 0; v < m; ++v) {
            InputVc& ivc = vcAt(ip, v);
            ivc.routeEvent.bind(this, kVcEventName, p, v);
            ivc.serveEvent.bind(this, kVcEventName, p, v);
        }
        ip.muxEvent.bind(this, kPortEventName, p);

        OutputPort& op = outputAt(p);
        op.vcs.resize(static_cast<std::size_t>(m));
        op.xbarEvent.bind(this, kPortEventName, p);
        op.muxEvent.bind(this, kPortEventName, p);
    }
    // The point-A arbiter only serves multiplexed crossbars, but is
    // initialised unconditionally so its mask state is always well
    // defined. Point C uses the configured discipline for full
    // crossbars (where it is the only flit-level contention point)
    // and FIFO otherwise, matching Section 3.3's placement argument.
    inputArb_.init(cfg_.scheduler, n, m);
    outputArb_.init(cfg_.crossbar == config::CrossbarKind::Full
                        ? cfg_.scheduler
                        : config::SchedulerKind::Fifo,
                    n, m);
    simulator_.addLazyDrain(this);
}

void
WormholeRouter::connectInputLink(int port, Link& link)
{
    MW_ASSERT(port >= 0 && port < cfg_.numPorts);
    InputPort& ip = inputAt(port);
    MW_ASSERT(ip.link == nullptr);
    link.connectReceiver(this, port);
    ip.link = &link;
    // Buffers exist only on wired ports (construction leaves them
    // empty), so unwired ports of a sparse topology cost no flits.
    for (int v = 0; v < cfg_.numVcs; ++v) {
        vcAt(ip, v).buffer = sim::Ring<Flit>(
            static_cast<std::size_t>(cfg_.flitBufferDepth));
    }
}

void
WormholeRouter::connectOutputLink(int port, Link& link,
                                  int downstream_buffer_depth)
{
    MW_ASSERT(port >= 0 && port < cfg_.numPorts);
    MW_ASSERT(downstream_buffer_depth > 0);
    OutputPort& op = outputAt(port);
    MW_ASSERT(op.link == nullptr);
    op.link = &link;
    op.downstreamDepth = downstream_buffer_depth;
    link.connectCreditReceiver(this, port);
    for (int v = 0; v < cfg_.numVcs; ++v) {
        outCredits_[vcIndex(port, v)] = downstream_buffer_depth;
        vcAt(op, v).buffer = sim::Ring<Flit>(
            static_cast<std::size_t>(cfg_.flitBufferDepth));
    }
}

void
WormholeRouter::setRouteTable(RouteTable table, int vc_classes,
                              sim::Rng pick_rng)
{
    MW_ASSERT(vc_classes >= 1 && vc_classes <= cfg_.numVcs);
    routeTable_ = std::move(table);
    classLanes_ = cfg_.numVcs / vc_classes;
    pickRng_ = pick_rng;
}

void
WormholeRouter::checkRoutesWired() const
{
    for (std::size_t dest = 0; dest < routeTable_.size(); ++dest) {
        const RouteCandidates& candidates = routeTable_[dest];
        for (int i = 0; i < candidates.count; ++i) {
            const int port = candidates.ports[static_cast<std::size_t>(i)];
            if (port < 0 || port >= cfg_.numPorts
                || outputAt(port).link == nullptr) {
                sim::panic("%s: route to node %zu names output port %d, "
                           "which has no link",
                           name_.c_str(), dest, port);
            }
        }
    }
}

int
WormholeRouter::outputLoad(int port) const
{
    int load = static_cast<int>(
        (xbarBusyMask_ >> static_cast<unsigned>(port)) & 1);
    const std::size_t base = vcIndex(port, 0);
    for (int v = 0; v < cfg_.numVcs; ++v) {
        const std::size_t i = base + static_cast<std::size_t>(v);
        load += outOccupancy_[i] + outReserved_[i];
    }
    load += std::popcount(allocatedMask_[static_cast<std::size_t>(port)]);
    return load;
}

// --- arrival ---------------------------------------------------------------

void
WormholeRouter::receiveFlit(int port, const Flit& flit, int vc)
{
    InputPort& ip = inputAt(port);
    InputVc& ivc = vcAt(ip, vc);
    // The upstream sender holds a credit for this slot; the ring
    // itself would grow rather than refuse.
    MW_ASSERT(ivc.buffer.size()
              < static_cast<std::size_t>(cfg_.flitBufferDepth));

    // Push first, stamp in place: the buffer hands back the stored
    // slot, so the arrival fields land directly in ring memory
    // instead of staging the 64-byte flit through a stack temporary.
    Flit& stamped = ivc.buffer.push_back(flit);
    VirtualClockState& vclock = inVclock_[vcIndex(port, vc)];
    if (stamped.isHeader()) {
        // The header carries the message's bandwidth request; install
        // it as this VC's Virtual Clock state (Section 3.3).
        vclock.beginMessage(stamped.vtick);
        ivc.vtick = stamped.vtick;
    }
    stamped.stamp = vclock.tick(simulator_.now());
    stamped.arrivalSeq = nextInputSeq_++;
    if (tracer_ != nullptr) {
        tracer_->record({simulator_.now(),
                         sim::TracePoint::RouterArrive, stamped.stream,
                         stamped.message, stamped.index,
                         traceLocation_, port, vc});
    }

    if (ivc.state == InputVcState::Idle) {
        MW_ASSERT(stamped.isHeader());
        startRouting(port, vc);
    } else if (ivc.state == InputVcState::Active) {
        if (cfg_.crossbar == config::CrossbarKind::Multiplexed) {
            refreshInputEligibility(port, vc);
            kickInputMux(port);
        } else {
            kickInputVcServer(port, vc);
        }
    }
}

void
WormholeRouter::collectCredits(int port, sim::Tick until)
{
    // Every credit collected here is for a VC that was not starved
    // when it fell due (a credit for a starved VC has the link's
    // credit event scheduled at its tick), so creditReturned()'s
    // eligibility refresh, cut-through grant and mux kick would have
    // changed nothing then; only the counter and the trace record
    // remain.
    outputAt(port).link->collectCredits(
        until, [this, port](int vc, sim::Tick due) {
            if (tracer_ != nullptr) {
                tracer_->record({due, sim::TracePoint::CreditReturn,
                                 sim::StreamId(), 0, 0, traceLocation_,
                                 port, vc});
            }
            ++outCredits_[vcIndex(port, vc)];
            refreshOutputEligibility(port, vc);
        });
}

void
WormholeRouter::creditReturned(int port, int vc)
{
    if (tracer_ != nullptr) {
        tracer_->record({simulator_.now(),
                         sim::TracePoint::CreditReturn, sim::StreamId(),
                         0, 0, traceLocation_, port, vc});
    }
    ++outCredits_[vcIndex(port, vc)];
    refreshOutputEligibility(port, vc);
    if (cfg_.switching == config::SwitchingKind::VirtualCutThrough)
        tryGrantNextWaiter(port, vc);
    kickOutputMux(port);
}

// --- routing and VC allocation ---------------------------------------------

void
WormholeRouter::startRouting(int port, int vc)
{
    InputVc& ivc = vcAt(inputAt(port), vc);
    MW_ASSERT(!ivc.buffer.empty() && ivc.buffer.front().isHeader());
    ivc.state = InputVcState::Routing;
    simulator_.scheduleAfter(
        ivc.routeEvent,
        static_cast<sim::Tick>(config::kHeaderPipelineCycles) * cycle());
}

void
WormholeRouter::routeComputed(int port, int vc)
{
    InputVc& ivc = vcAt(inputAt(port), vc);
    MW_ASSERT(ivc.state == InputVcState::Routing);
    MW_ASSERT(!ivc.buffer.empty());
    const Flit& header = ivc.buffer.front();
    MW_ASSERT(header.isHeader());

    const auto dest = static_cast<std::size_t>(header.dest.value());
    MW_DEBUG_ASSERT(dest < routeTable_.size());
    const RouteCandidates& candidates = routeTable_[dest];
    MW_ASSERT(candidates.count >= 1);

    // VC-class mapping: class -1 keeps the legacy identity (output
    // VC = the header's lane); class c maps into the c-th band of
    // classLanes_ output VCs.
    const auto map_vc = [&](int i) {
        const int cls = candidates.vcClasses[static_cast<std::size_t>(i)];
        return cls < 0 ? static_cast<int>(header.vcLane)
                       : cls * classLanes_ + header.vcLane % classLanes_;
    };

    int choice;
    if (candidates.select == RouteCandidates::Select::AdaptiveEscape
        && candidates.count > 1) {
        // Adaptive selection: prefer the least-loaded adaptive
        // candidate whose mapped output VC is free right now, so a
        // message never waits for the allocation of an adaptive VC;
        // otherwise fall back to the escape candidate (last), whose
        // dependency graph is acyclic by construction. Free means
        // unallocated *and* drained downstream (every credit back):
        // a message queued in an adaptive VC behind another would
        // wait on whatever escape channel that one waits on, an
        // escape dependency outside dimension order that closes
        // cycles on the torus.
        choice = candidates.count - 1;
        int best_load = -1;
        for (int i = 0; i < candidates.count - 1; ++i) {
            const int p = candidates.ports[static_cast<std::size_t>(i)];
            const int v = map_vc(i);
            const std::uint64_t vbit = std::uint64_t{1}
                << static_cast<unsigned>(v);
            if ((allocatedMask_[static_cast<std::size_t>(p)] & vbit)
                != 0)
                continue;
            collectCredits(p);
            if (outCredits_[vcIndex(p, v)] < outputAt(p).downstreamDepth)
                continue;
            const int load = outputLoad(p);
            if (best_load < 0 || load < best_load) {
                best_load = load;
                choice = i;
            }
        }
    } else if (candidates.select == RouteCandidates::Select::Random) {
        choice = static_cast<int>(pickRng_.uniformInt(
            static_cast<std::uint64_t>(candidates.count)));
    } else {
        // Fat-channel selection: pick the least-loaded candidate port
        // (Section 3.4: "a message can use any one of the two links
        // ... based on the current load").
        choice = 0;
        int best_load = outputLoad(candidates.ports[0]);
        for (int i = 1; i < candidates.count; ++i) {
            const int load =
                outputLoad(candidates.ports[static_cast<std::size_t>(i)]);
            if (load < best_load) {
                best_load = load;
                choice = i;
            }
        }
    }

    const int out_port =
        candidates.ports[static_cast<std::size_t>(choice)];
    const int out_vc = map_vc(choice);
    MW_ASSERT(out_vc >= 0 && out_vc < cfg_.numVcs);
    // Once per message, in every build: an unwired port has no
    // buffers, so nothing may be granted there (checkRoutesWired()
    // rejects such tables up front for whole networks).
    if (out_port < 0 || out_port >= cfg_.numPorts
        || outputAt(out_port).link == nullptr) {
        sim::panic("%s: header for node %zu routed to output port %d, "
                   "which has no link",
                   name_.c_str(), dest, out_port);
    }
    ++headersRouted_;
    requestOutputVc(port, vc, out_port, out_vc);
}

void
WormholeRouter::requestOutputVc(int port, int vc, int out_port,
                                int out_vc)
{
    InputVc& ivc = vcAt(inputAt(port), vc);
    OutputVc& ovc = vcAt(outputAt(out_port), out_vc);
    ivc.outPort = out_port;
    ivc.outVc = out_vc;
    ivc.state = InputVcState::WaitingVc;
    // Append to the output VC's allocation FIFO.
    const int id = waiterId({port, vc});
    ivc.allocNext = kNoVc;
    if (ovc.allocTail == kNoVc)
        ovc.allocHead = id;
    else
        waiterVc(ovc.allocTail).allocNext = id;
    ovc.allocTail = id;
    if (!tryGrantNextWaiter(out_port, out_vc))
        ++allocationWaits_;
}

bool
WormholeRouter::tryGrantNextWaiter(int out_port, int out_vc)
{
    OutputVc& ovc = vcAt(outputAt(out_port), out_vc);
    const std::uint64_t vbit = std::uint64_t{1}
        << static_cast<unsigned>(out_vc);
    if ((allocatedMask_[static_cast<std::size_t>(out_port)] & vbit) != 0
        || ovc.allocHead == kNoVc)
        return false;

    const InputVcKey key = waiterKey(ovc.allocHead);
    InputVc& ivc = waiterVc(ovc.allocHead);
    if (cfg_.switching == config::SwitchingKind::VirtualCutThrough) {
        // Cut-through gate: the next hop must be able to buffer the
        // whole message, so a blocked message parks here instead of
        // stretching across the link. Re-checked on credit returns,
        // which the gate bit asks the link to deliver.
        MW_ASSERT(!ivc.buffer.empty()
                  && ivc.buffer.front().isHeader());
        const int message_flits = ivc.buffer.front().messageFlits;
        if (message_flits > cfg_.flitBufferDepth) {
            sim::fatal("virtual cut-through requires messages (%d "
                       "flits) to fit the %d-flit VC buffers",
                       message_flits, cfg_.flitBufferDepth);
        }
        collectCredits(out_port);
        std::uint64_t& gate =
            gateMask_[static_cast<std::size_t>(out_port)];
        if (outCredits_[vcIndex(out_port, out_vc)] < message_flits) {
            if ((gate & vbit) == 0) {
                gate |= vbit;
                outputAt(out_port).link->awaitCredit();
            }
            return false;
        }
        gate &= ~vbit;
    }
    ovc.allocHead = ivc.allocNext;
    if (ovc.allocHead == kNoVc)
        ovc.allocTail = kNoVc;
    ivc.allocNext = kNoVc;
    allocatedMask_[static_cast<std::size_t>(out_port)] |= vbit;
    grantOutputVc(key, out_port, out_vc);
    return true;
}

void
WormholeRouter::grantOutputVc(InputVcKey key, int out_port, int out_vc)
{
    InputPort& ip = inputAt(key.port);
    InputVc& ivc = vcAt(ip, key.vc);
    MW_ASSERT(ivc.outPort == out_port && ivc.outVc == out_vc);
    ivc.state = InputVcState::Active;
    ivc.outPortPtr = &outputAt(out_port);
    ivc.outVcPtr = &vcAt(*ivc.outPortPtr, out_vc);
    ivc.outFlatIdx = vcIndex(out_port, out_vc);
    if (cfg_.crossbar == config::CrossbarKind::Multiplexed) {
        refreshInputEligibility(key.port, key.vc);
        kickInputMux(key.port);
    } else {
        kickInputVcServer(key.port, key.vc);
    }
}

void
WormholeRouter::finishInputMessage(InputVcKey key)
{
    InputVc& ivc = vcAt(inputAt(key.port), key.vc);
    ivc.outPort = -1;
    ivc.outVc = -1;
    ivc.outPortPtr = nullptr;
    ivc.outVcPtr = nullptr;
    ivc.outFlatIdx = 0;
    if (!ivc.buffer.empty()) {
        // The next message's header is already queued behind the tail.
        startRouting(key.port, key.vc);
    } else {
        ivc.state = InputVcState::Idle;
    }
}

// --- point A: crossbar input multiplexer (multiplexed crossbar) ------------

void
WormholeRouter::kickInputMux(int port)
{
    InputPort& ip = inputAt(port);
    if (ip.mux.kick(simulator_, ip.muxEvent))
        serveInputMux(port);
}

void
WormholeRouter::serveInputMux(int port)
{
    InputPort& ip = inputAt(port);
    MW_DEBUG_ASSERT(!ip.mux.busy());
    MW_DEBUG_ASSERT(cfg_.crossbar == config::CrossbarKind::Multiplexed);

    // The arbiter mask holds every Active VC with a buffered head
    // flit; the crossbar and downstream-space gates are evaluated
    // here (they depend on other ports' state), pruning the mask and
    // parking blocked VCs on the matching wait list. Bits are walked
    // in ascending VC order, exactly like the scan this replaces.
    // Both gates read SoA state only - the downstream-space test uses
    // the occupancy mirror (output buffers all have flitBufferDepth
    // capacity) and the crossbar test one bit of xbarBusyMask_ - so
    // the common path never dereferences the granted port/VC structs.
    const int depth = cfg_.flitBufferDepth;
    std::uint64_t pending = inputArb_.mask(port);
    std::uint64_t serveable = 0;
    while (pending != 0) {
        const int v = __builtin_ctzll(pending);
        pending &= pending - 1;
        InputVc& ivc = vcAt(ip, v);
        const std::size_t idx = ivc.outFlatIdx;
        if (depth - outOccupancy_[idx] <= outReserved_[idx]) {
            registerSpaceWaiter(*ivc.outVcPtr, {port, v});
            continue;
        }
        if ((xbarBusyMask_ >> static_cast<unsigned>(ivc.outPort)) & 1) {
            xbarWaiters_[static_cast<std::size_t>(ivc.outPort)] |=
                std::uint64_t{1} << static_cast<unsigned>(port);
            continue;
        }
        serveable |= std::uint64_t{1} << static_cast<unsigned>(v);
    }
    if (serveable == 0)
        return;

    const int v = inputArb_.pickMasked(port, serveable);
    InputVc& ivc = vcAt(ip, v);

    // Dispatch the head flit into the crossbar (point B server).
    // The flit is copied straight from the buffer head into the
    // crossbar register; no intermediate stack copy.
    OutputPort& op = *ivc.outPortPtr;
    ++outReserved_[ivc.outFlatIdx];
    MW_DEBUG_ASSERT(
        ((xbarBusyMask_ >> static_cast<unsigned>(ivc.outPort)) & 1)
        == 0);
    xbarBusyMask_ |= std::uint64_t{1}
        << static_cast<unsigned>(ivc.outPort);
    op.xbarFlit = ivc.buffer.front();
    op.xbarFlitVc = ivc.outVc;
    ivc.buffer.pop_front();
    const bool is_tail = op.xbarFlit.isTail();
    simulator_.scheduleAfter(
        op.xbarEvent,
        static_cast<sim::Tick>(config::kCrossbarCycles) * cycle());

    if (ip.link)
        ip.link->sendCredit(v);
    if (is_tail)
        finishInputMessage({port, v});
    // The pop (and, for tails, the VC release) changed this slot's
    // head; re-derive its bit once the dust settles.
    refreshInputEligibility(port, v);

    // An empty mask means next cycle's wakeup is provably a no-op
    // (the serve loop above has no side effects on an empty mask), so
    // LazyTick elides it unless something raises a bit first.
    ip.mux.arm(simulator_, ip.muxEvent, cycle(),
               inputArb_.mask(port) == 0);
}

void
WormholeRouter::inputMuxFired(int port)
{
    inputAt(port).mux.fired();
    serveInputMux(port);
}

// --- full crossbar: one private server per input VC -------------------------

void
WormholeRouter::kickInputVcServer(int port, int vc)
{
    if (!vcAt(inputAt(port), vc).serverBusy)
        serveInputVc(port, vc);
}

void
WormholeRouter::serveInputVc(int port, int vc)
{
    InputVc& ivc = vcAt(inputAt(port), vc);
    MW_DEBUG_ASSERT(!ivc.serverBusy);
    if (ivc.state != InputVcState::Active || ivc.buffer.empty())
        return;
    const std::size_t idx = ivc.outFlatIdx;
    if (cfg_.flitBufferDepth - outOccupancy_[idx] <= outReserved_[idx]) {
        registerSpaceWaiter(*ivc.outVcPtr, {port, vc});
        return;
    }

    ++outReserved_[idx];
    ivc.inFlight = ivc.buffer.front();
    ivc.buffer.pop_front();
    ivc.inFlightOutPort = ivc.outPort;
    ivc.inFlightOutVc = ivc.outVc;
    ivc.serverBusy = true;
    simulator_.scheduleAfter(
        ivc.serveEvent,
        static_cast<sim::Tick>(config::kCrossbarCycles) * cycle());

    InputPort& ip = inputAt(port);
    if (ip.link)
        ip.link->sendCredit(vc);
    if (ivc.inFlight.isTail())
        finishInputMessage({port, vc});
}

void
WormholeRouter::vcServeFired(int port, int vc)
{
    InputVc& ivc = vcAt(inputAt(port), vc);
    const int out_port = ivc.inFlightOutPort;
    const int out_vc = ivc.inFlightOutVc;
    ivc.serverBusy = false;
    depositIntoOutputVc(out_port, out_vc, ivc.inFlight);
    serveInputVc(port, vc);
}

// --- point B: crossbar output port ------------------------------------------

void
WormholeRouter::xbarDeliver(int out_port)
{
    OutputPort& op = outputAt(out_port);
    MW_DEBUG_ASSERT(
        ((xbarBusyMask_ >> static_cast<unsigned>(out_port)) & 1) == 1);
    const int out_vc = op.xbarFlitVc;
    xbarBusyMask_ &=
        ~(std::uint64_t{1} << static_cast<unsigned>(out_port));
    op.xbarFlitVc = -1;
    // The crossbar register is dead once deposited (the deposit
    // copies it into the output buffer before any nested serve can
    // reload it), so hand it over by reference.
    depositIntoOutputVc(out_port, out_vc, op.xbarFlit);

    // Wake input multiplexers blocked on this crossbar output.
    std::uint64_t waiters = xbarWaiters_[static_cast<std::size_t>(out_port)];
    xbarWaiters_[static_cast<std::size_t>(out_port)] = 0;
    while (waiters != 0) {
        const int p = __builtin_ctzll(waiters);
        waiters &= waiters - 1;
        kickInputMux(p);
    }
}

void
WormholeRouter::depositIntoOutputVc(int out_port, int out_vc,
                                    Flit& flit)
{
    OutputPort& op = outputAt(out_port);
    OutputVc& ovc = vcAt(op, out_vc);
    const std::size_t idx = vcIndex(out_port, out_vc);
    MW_DEBUG_ASSERT(outReserved_[idx] > 0);
    --outReserved_[idx];
    collectCredits(out_port);

    // Point-C stamping: relevant when the configured discipline runs
    // at the VC output multiplexer (full crossbars). Stamped in
    // place — the caller's flit is dead after the push below.
    VirtualClockState& vclock = outVclock_[idx];
    if (flit.isHeader())
        vclock.beginMessage(flit.vtick);
    flit.stamp = vclock.tick(simulator_.now());
    flit.arrivalSeq = op.nextArrivalSeq++;
    MW_ASSERT(ovc.buffer.size()
              < static_cast<std::size_t>(cfg_.flitBufferDepth));
    ovc.buffer.push_back(flit);
    ++outOccupancy_[idx];
    refreshOutputEligibility(out_port, out_vc);
    kickOutputMux(out_port);
}

// --- point C: VC output multiplexer ------------------------------------------

void
WormholeRouter::kickOutputMux(int port)
{
    OutputPort& op = outputAt(port);
    if (op.mux.kick(simulator_, op.muxEvent))
        serveOutputMux(port);
}

void
WormholeRouter::serveOutputMux(int port)
{
    OutputPort& op = outputAt(port);
    MW_DEBUG_ASSERT(!op.mux.busy());

    // Point-C eligibility (buffered flit + credit) is maintained
    // incrementally at deposit/credit/send time, so an idle kick is
    // one mask test instead of a VC scan. Credits that fell due
    // since the last read land first (they change no eligibility).
    collectCredits(port);
    if (!outputArb_.anyEligible(port))
        return;

    const int v = outputArb_.pick(port);
    OutputVc& ovc = vcAt(op, v);

    // The link copies the flit into its in-flight queue (delivery is
    // a later event), so it can be sent straight from the buffer head
    // and dropped — no stack copy of the 64-byte Flit.
    const Flit& flit = ovc.buffer.front();
    const bool is_tail = flit.isTail();
    op.link->sendFlit(flit, v);
    ++flitsForwarded_;
    if (tracer_ != nullptr) {
        tracer_->record({simulator_.now(),
                         sim::TracePoint::RouterDepart, flit.stream,
                         flit.message, flit.index, traceLocation_,
                         port, v});
    }
    ovc.buffer.pop_front();
    const std::size_t idx = vcIndex(port, v);
    if (!op.sink)
        --outCredits_[idx];
    --outOccupancy_[idx];
    refreshOutputEligibility(port, v);
    wakeSpaceWaiter(ovc);

    if (is_tail) {
        // Tail left stage 5: discard the Vtick state and hand the VC
        // to the next waiting message (stage-3 arbitration order;
        // virtual cut-through additionally gates on downstream
        // buffer space).
        outVclock_[idx].endMessage();
        allocatedMask_[static_cast<std::size_t>(port)] &=
            ~(std::uint64_t{1} << static_cast<unsigned>(v));
        tryGrantNextWaiter(port, v);
    }

    // An empty eligibility mask means next cycle's wakeup would do
    // nothing (the anyEligible() gate above returns before any side
    // effect), so LazyTick elides it.
    op.mux.arm(simulator_, op.muxEvent, cycle(),
               !outputArb_.anyEligible(port));
}

void
WormholeRouter::outputMuxFired(int port)
{
    outputAt(port).mux.fired();
    serveOutputMux(port);
}

// --- waiter bookkeeping -------------------------------------------------------

void
WormholeRouter::registerSpaceWaiter(OutputVc& ovc, InputVcKey key)
{
    const int id = waiterId(key);
    MW_ASSERT(ovc.spaceWaiter == kNoVc || ovc.spaceWaiter == id);
    ovc.spaceWaiter = id;
}

void
WormholeRouter::wakeSpaceWaiter(OutputVc& ovc)
{
    if (ovc.spaceWaiter == kNoVc)
        return;
    // Clear before the kick: a handler served inline may park again.
    const InputVcKey key = waiterKey(ovc.spaceWaiter);
    ovc.spaceWaiter = kNoVc;
    if (cfg_.crossbar == config::CrossbarKind::Multiplexed)
        kickInputMux(key.port);
    else
        kickInputVcServer(key.port, key.vc);
}

std::uint64_t
WormholeRouter::flushLazy(sim::Tick until)
{
    // Every event up to the horizon has fired, so the credits due by
    // then are applied too: what stays in a pipe falls due beyond
    // it, and the trace holds a record for every credit that fell
    // due inside the run.
    std::uint64_t credited = 0;
    for (int p = 0; p < cfg_.numPorts; ++p) {
        credited += inputAt(p).mux.flush(until);
        credited += outputAt(p).mux.flush(until);
        if (outputAt(p).link != nullptr)
            collectCredits(p, until);
    }
    return credited;
}

bool
WormholeRouter::lazyPending() const
{
    for (int p = 0; p < cfg_.numPorts; ++p) {
        const OutputPort& op = outputAt(p);
        if (inputAt(p).mux.pending() || op.mux.pending()
            || (op.link != nullptr && op.link->creditsPending()))
            return true;
    }
    return false;
}

// --- diagnostics ----------------------------------------------------------------

void
WormholeRouter::registerStats(stats::Registry& registry) const
{
    // Flits that left the router; messages whose header computed a
    // route; messages that blocked on output-VC allocation.
    registry.add(name_ + ".flits_forwarded",
                 [this] { return static_cast<double>(flitsForwarded_); });
    registry.add(name_ + ".headers_routed",
                 [this] { return static_cast<double>(headersRouted_); });
    registry.add(name_ + ".allocation_waits", [this] {
        return static_cast<double>(allocationWaits_);
    });
    // Buffered flits at each output port.
    for (int p = 0; p < cfg_.numPorts; ++p) {
        registry.add(
            name_ + ".port" + std::to_string(p) + ".output_load",
            [this, p] { return static_cast<double>(outputLoad(p)); });
    }
}

void
WormholeRouter::debugCorruptVcForTest(int port, int vc)
{
    // An Active input VC must carry a valid grant; wiping it is the
    // smallest corruption every invariant profile detects.
    InputVc& ivc = vcAt(inputAt(port), vc);
    ivc.state = InputVcState::Active;
    ivc.outPort = -1;
    ivc.outVc = -1;
}

/**
 * Contextual invariant check: panics with the router name and the
 * offending port/VC, so a crash dump (see obs::FlightRecorder)
 * pinpoints where the state went bad. Relies on `p` and `v` being the
 * loop variables in scope at the use site.
 */
#define MW_CHECK(cond)                                                  \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::mediaworm::sim::panic(                                    \
                "%s: invariant '%s' failed at port=%d vc=%d (%s:%d)",   \
                name_.c_str(), #cond, p, v, __FILE__, __LINE__);        \
        }                                                               \
    } while (0)

void
WormholeRouter::checkInvariants() const
{
    for (int p = 0; p < cfg_.numPorts; ++p) {
        const InputPort& ip = inputAt(p);
        for (int v = 0; v < cfg_.numVcs; ++v) {
            const InputVc& ivc = vcAt(ip, v);
            MW_CHECK(ivc.buffer.size()
                      <= static_cast<std::size_t>(
                          cfg_.flitBufferDepth));
            if (ivc.state == InputVcState::Active) {
                MW_CHECK(ivc.outPort >= 0 && ivc.outVc >= 0);
                // The cached grant pointers must track the ids.
                MW_CHECK(ivc.outPortPtr == &outputAt(ivc.outPort));
                MW_CHECK(ivc.outVcPtr
                          == &vcAt(*ivc.outPortPtr, ivc.outVc));
            }
            if (ivc.state == InputVcState::Idle)
                MW_CHECK(ivc.buffer.empty());
            if (cfg_.crossbar == config::CrossbarKind::Multiplexed) {
                // Eligibility-mask invariant: bit v mirrors (Active
                // && non-empty), and the cached head record matches
                // the head flit (DESIGN.md section 9).
                const bool ready =
                    ivc.state == InputVcState::Active
                    && !ivc.buffer.empty();
                MW_CHECK(inputArb_.eligible(p, v) == ready);
                if (ready) {
                    const Flit& head = ivc.buffer.front();
                    MW_CHECK(inputArb_.head(p, v).stamp == head.stamp);
                    MW_CHECK(inputArb_.head(p, v).fifoSeq
                              == head.arrivalSeq);
                    MW_CHECK(inputArb_.head(p, v).vtick == head.vtick);
                }
            }
        }
        const OutputPort& op = outputAt(p);
        // The incremental refreshes must keep the arbiter mask equal
        // to the one-pass SoA derivation.
        const std::uint64_t out_mask = computeOutputMask(p);
        {
            // A credit in the pipe for a starved VC has the credit
            // event scheduled at or before its tick, or the VC would
            // wait for it forever.
            const int v = -1;
            if (op.link != nullptr)
                MW_CHECK(op.link->creditEventCovers(starvedVcs(p)));
        }
        for (int v = 0; v < cfg_.numVcs; ++v) {
            const OutputVc& ovc = vcAt(op, v);
            const std::size_t i = vcIndex(p, v);
            MW_CHECK(outReserved_[i] >= 0);
            MW_CHECK(ovc.buffer.size()
                          + static_cast<std::size_t>(outReserved_[i])
                      <= static_cast<std::size_t>(cfg_.flitBufferDepth));
            MW_CHECK(outCredits_[i] >= 0);
            // Credits, applied or on the wire, and flits on the wire
            // never exceed the downstream slots they stand for. A
            // sink port spends none, and none comes back.
            if (op.sink)
                MW_CHECK(outCredits_[i] == op.downstreamDepth
                         && op.link->creditsInFlight(v) == 0);
            else if (op.link != nullptr)
                MW_CHECK(outCredits_[i] + op.link->creditsInFlight(v)
                             + op.link->flitsInFlight(v)
                         <= op.downstreamDepth);
            // SoA occupancy mirrors the buffer it shadows.
            MW_CHECK(outOccupancy_[i]
                      == static_cast<int>(ovc.buffer.size()));
            // The starved bit mirrors (flit buffered, no credit
            // applied); credits still in the pipe do not count until
            // the credit event or a collect applies them.
            MW_CHECK(((starvedMask_[static_cast<std::size_t>(p)]
                       >> static_cast<unsigned>(v))
                      & 1)
                     == (outOccupancy_[i] > 0 && outCredits_[i] == 0));
            const bool allocated =
                (allocatedMask_[static_cast<std::size_t>(p)]
                 >> static_cast<unsigned>(v))
                & 1;
            if (!allocated) {
                // Wormhole grants immediately on release; only the
                // cut-through space gate may leave waiters parked.
                if (cfg_.switching == config::SwitchingKind::Wormhole)
                    MW_CHECK(ovc.allocHead == kNoVc);
                MW_CHECK(ovc.buffer.empty());
            }
            // Waiter links: every allocation waiter waits for this
            // VC, the FIFO ends at allocTail, and a space waiter is
            // the VC's holder.
            int last = kNoVc;
            for (int w = ovc.allocHead; w != kNoVc;
                 w = waiterVc(w).allocNext) {
                const InputVc& waiter = waiterVc(w);
                MW_CHECK(waiter.state == InputVcState::WaitingVc);
                MW_CHECK(waiter.outPort == p && waiter.outVc == v);
                last = w;
            }
            MW_CHECK(ovc.allocTail == last);
            if (ovc.spaceWaiter != kNoVc) {
                const InputVc& holder = waiterVc(ovc.spaceWaiter);
                MW_CHECK(holder.state == InputVcState::Active);
                MW_CHECK(holder.outVcPtr == &ovc);
            }
            const bool ready = (out_mask >> static_cast<unsigned>(v)) & 1u;
            MW_CHECK(outputArb_.eligible(p, v) == ready);
            if (ready) {
                const Flit& head = ovc.buffer.front();
                MW_CHECK(outputArb_.head(p, v).stamp == head.stamp);
                MW_CHECK(outputArb_.head(p, v).fifoSeq == head.arrivalSeq);
                MW_CHECK(outputArb_.head(p, v).vtick == head.vtick);
            }
        }
    }
}

#undef MW_CHECK

} // namespace mediaworm::router
