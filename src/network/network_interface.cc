#include "network/network_interface.hh"

#include "sim/logging.hh"

namespace mediaworm::network {

NetworkInterface::NetworkInterface(sim::Simulator& simulator,
                                   sim::NodeId node,
                                   const config::RouterConfig& cfg,
                                   MetricsHub& metrics, std::string name)
    : simulator_(simulator), node_(node), cfg_(cfg),
      lane_(&metrics.lane(node.value())), name_(std::move(name)),
      cycleTime_(cfg.cycleTime()),
      vcs_(static_cast<std::size_t>(cfg.numVcs)),
      credits_(static_cast<std::size_t>(cfg.numVcs), 0),
      muxEvent_(this, "NetworkInterface::mux")
{
    arb_.init(config::SchedulerKind::Fifo, /*num_ports=*/1, cfg.numVcs);
    simulator_.addLazyDrain(this);
}

void
NetworkInterface::muxFired()
{
    mux_.fired();
    serveMux();
}

std::uint64_t
NetworkInterface::flushLazy(sim::Tick until)
{
    if (injectionLink_ != nullptr)
        collectCredits(until);
    return mux_.flush(until);
}

bool
NetworkInterface::lazyPending() const
{
    return mux_.pending()
        || (injectionLink_ != nullptr && injectionLink_->creditsPending());
}

void
NetworkInterface::collectCredits(sim::Tick until)
{
    // Each collected credit is for a lane that was not starved when
    // it fell due, so creditReturned()'s kick would have been a
    // no-op then.
    injectionLink_->collectCredits(
        until, [this](int vc, sim::Tick) {
            ++credits_[static_cast<std::size_t>(vc)];
            refreshEligibility(vc);
        });
}

void
NetworkInterface::connectInjectionLink(router::Link& link,
                                       int router_buffer_depth)
{
    MW_ASSERT(router_buffer_depth > 0);
    injectionLink_ = &link;
    routerBufferDepth_ = router_buffer_depth;
    link.connectCreditReceiver(this);
    for (int& c : credits_)
        c = router_buffer_depth;
}

void
NetworkInterface::injectMessage(const traffic::MessageDesc& message)
{
    MW_ASSERT(message.numFlits >= 2);
    MW_ASSERT(message.vcLane >= 0 && message.vcLane < cfg_.numVcs);
    MW_ASSERT(message.dest.valid() && message.dest != node_);
    MW_ASSERT(injectionLink_ != nullptr);
    if (cfg_.switching == config::SwitchingKind::VirtualCutThrough
        && routerBufferDepth_ > 0
        && message.numFlits > routerBufferDepth_) {
        sim::fatal("virtual cut-through requires messages (%d flits) "
                   "to fit the %d-flit router buffers",
                   message.numFlits, routerBufferDepth_);
    }

    const sim::Tick now = simulator_.now();
    if (tracer_ != nullptr) {
        tracer_->record({now, sim::TracePoint::HostInject,
                         message.stream, message.seq, -1,
                         node_.value(), -1, message.vcLane});
    }

    // Queue one record; its flits are built one at a time as the
    // injection mux reaches them (loadHeader/serveMux). Their arrival
    // sequence numbers are reserved now, so FIFO ties across lanes
    // order exactly as if every flit had been queued at injection.
    PendingMessage pending;
    pending.vtick = message.vtick;
    pending.injectTime = now;
    pending.firstSeq = nextArrivalSeq_;
    pending.stream = message.stream;
    pending.dest = message.dest;
    pending.message = router::checkedMessageSeq(message.seq);
    pending.numFlits = message.numFlits;
    pending.cls = message.cls;
    pending.endOfFrame = message.endOfFrame;
    nextArrivalSeq_ += static_cast<std::uint64_t>(message.numFlits);
    backlogFlits_ += static_cast<std::uint64_t>(message.numFlits);

    collectCredits(now);
    InjectionVc& vc = vcs_[static_cast<std::size_t>(message.vcLane)];
    vc.messages.push_back(pending);
    if (vc.messages.size() == 1)
        loadHeader(message.vcLane);
    refreshEligibility(message.vcLane);
    kickMux();
}

void
NetworkInterface::loadHeader(int vc_index)
{
    InjectionVc& vc = vcs_[static_cast<std::size_t>(vc_index)];
    const PendingMessage& m = vc.messages.front();
    router::Flit& flit = vc.next;
    flit = router::Flit{};
    flit.vtick = m.vtick;
    flit.injectTime = m.injectTime;
    flit.arrivalSeq = m.firstSeq;
    flit.stream = m.stream;
    flit.dest = m.dest;
    flit.message = m.message;
    flit.messageFlits = m.numFlits;
    flit.cls = m.cls;
    flit.vcLane = static_cast<std::uint8_t>(vc_index);
}

void
NetworkInterface::receiveFlit(int, const router::Flit& flit, int vc)
{
    const sim::Tick now = simulator_.now();
    if (tracer_ != nullptr) {
        tracer_->record({now, sim::TracePoint::Eject, flit.stream,
                         flit.message, flit.index, node_.value(), -1,
                         vc});
    }
    lane_->recordFlit(flit.stream, now);
    if (!flit.isTail())
        return;
    if (flit.cls == router::TrafficClass::BestEffort) {
        lane_->recordBeMessage(flit.injectTime,
                               flit.networkEnterTime, now);
        return;
    }
    lane_->recordRtMessage(flit.stream, flit.injectTime, now);
    if (flit.endOfFrame)
        lane_->recordFrameDelivery(flit.stream, now);
}

void
NetworkInterface::creditReturned(int, int vc)
{
    ++credits_[static_cast<std::size_t>(vc)];
    refreshEligibility(vc);
    kickMux();
}

std::uint64_t
NetworkInterface::backlogFlits() const
{
    return backlogFlits_;
}

void
NetworkInterface::refreshEligibility(int vc_index)
{
    const InjectionVc& vc = vcs_[static_cast<std::size_t>(vc_index)];
    const int credits = credits_[static_cast<std::size_t>(vc_index)];
    bool ready = !vc.messages.empty() && credits > 0;
    if (ready
        && cfg_.switching == config::SwitchingKind::VirtualCutThrough) {
        // Virtual cut-through gates message launch on the router
        // input buffer holding the whole message.
        if (vc.next.isHeader() && credits < vc.next.messageFlits)
            ready = false;
    }
    const std::uint64_t bit = std::uint64_t{1}
        << static_cast<unsigned>(vc_index);
    if (ready) {
        arb_.setEligible(0, vc_index, vc.next);
        starvedMask_ &= ~bit;
    } else {
        arb_.clearEligible(0, vc_index);
        if (vc.messages.empty()) {
            starvedMask_ &= ~bit;
        } else if ((starvedMask_ & bit) == 0) {
            starvedMask_ |= bit;
            injectionLink_->awaitCredit();
        }
    }
}

void
NetworkInterface::kickMux()
{
    if (mux_.kick(simulator_, muxEvent_))
        serveMux();
}

void
NetworkInterface::serveMux()
{
    MW_DEBUG_ASSERT(!mux_.busy());
    MW_DEBUG_ASSERT(injectionLink_ != nullptr);

    collectCredits(simulator_.now());
    if (!arb_.anyEligible(0))
        return;

    const int v = arb_.pick(0);
    InjectionVc& vc = vcs_[static_cast<std::size_t>(v)];

    // Stamp the launch time in place and send the lane's built flit;
    // the link copies it, so it can be advanced in place after.
    router::Flit& flit = vc.next;
    flit.networkEnterTime = simulator_.now();
    injectionLink_->sendFlit(flit, v);
    ++flitsInjected_;
    --backlogFlits_;
    if (tracer_ != nullptr) {
        tracer_->record({simulator_.now(),
                         sim::TracePoint::NetworkLaunch, flit.stream,
                         flit.message, flit.index, node_.value(), -1,
                         v});
    }
    if (flit.isTail()) {
        vc.messages.pop_front();
        if (!vc.messages.empty())
            loadHeader(v);
    } else {
        const PendingMessage& m = vc.messages.front();
        ++flit.index;
        flit.type = flit.index == m.numFlits - 1
            ? router::FlitType::Tail
            : router::FlitType::Body;
        flit.endOfFrame = m.endOfFrame && flit.isTail();
        ++flit.arrivalSeq;
    }
    --credits_[static_cast<std::size_t>(v)];
    refreshEligibility(v);

    // Nothing eligible next cycle means a provably-idle wakeup (the
    // anyEligible() gate above has no side effects): elide it.
    mux_.arm(simulator_, muxEvent_, cycleTime_, !arb_.anyEligible(0));
}

} // namespace mediaworm::network
