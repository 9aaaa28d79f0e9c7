#include "pcs/pcs_network.hh"

#include "sim/logging.hh"

namespace mediaworm::pcs {

PcsNetwork::PcsNetwork(sim::Simulator& simulator, const PcsConfig& cfg,
                       network::MetricsHub& metrics)
    : simulator_(simulator), cfg_(cfg), lane_(metrics.lane(0)),
      cycleTime_(cfg.cycleTime()), table_(cfg)
{
    const int n = cfg_.numPorts;
    const int m = cfg_.numVcs;
    sources_ = std::make_unique<SourceUnit[]>(
        static_cast<std::size_t>(n));
    dests_ = std::make_unique<DestUnit[]>(static_cast<std::size_t>(n));
    sourceArb_.init(cfg_.linkScheduler, n, m);
    destArb_.init(cfg_.linkScheduler, n, m);

    for (int node = 0; node < n; ++node) {
        SourceUnit& su = sources_[static_cast<std::size_t>(node)];
        su.vcs = std::make_unique<SourceVc[]>(
            static_cast<std::size_t>(m));
        su.muxEvent.bind(this, "PcsNetwork::sourceMux", node);

        DestUnit& du = dests_[static_cast<std::size_t>(node)];
        du.vcs = std::make_unique<DestVc[]>(static_cast<std::size_t>(m));
        for (int v = 0; v < m; ++v) {
            du.vcs[static_cast<std::size_t>(v)].buffer =
                sim::Ring<router::Flit>(
                    static_cast<std::size_t>(cfg_.flitBufferDepth));
        }
        du.muxEvent.bind(this, "PcsNetwork::destMux", node);
    }
}

void
PcsNetwork::registerConnection(const Connection& connection)
{
    SourceUnit& su =
        sources_[static_cast<std::size_t>(connection.src.value())];
    SourceVc& svc =
        su.vcs[static_cast<std::size_t>(connection.srcVc)];
    MW_ASSERT(!svc.active);

    DestUnit& du =
        dests_[static_cast<std::size_t>(connection.dst.value())];
    DestVc& dvc = du.vcs[static_cast<std::size_t>(connection.dstVc)];
    MW_ASSERT(!dvc.active);

    // One bidirectional circuit segment: data towards the
    // destination, credits back to the source.
    links_.push_back(std::make_unique<router::Link>(
        simulator_,
        static_cast<sim::Tick>(cfg_.pathCycles) * cycleTime_,
        "pcs-conn" + std::to_string(connection.stream.value()),
        router::ChannelIds::forLinkIndex(links_.size())));
    router::Link& link = *links_.back();
    link.connectReceiver(this, connection.dst.value());
    link.connectCreditReceiver(this, connection.src.value());

    svc.active = true;
    svc.credits = cfg_.flitBufferDepth;
    svc.dstVc = connection.dstVc;
    svc.link = &link;
    // Connection-oriented Virtual Clock: the reservation persists
    // for the connection's lifetime (unlike MediaWorm's per-message
    // state).
    svc.vclock.beginMessage(connection.vtick);

    dvc.active = true;
    dvc.srcVc = connection.srcVc;
    dvc.link = &link;
    dvc.vclock.beginMessage(connection.vtick);

    const auto index =
        static_cast<std::size_t>(connection.stream.value());
    if (byStream_.size() <= index)
        byStream_.resize(index + 1);
    byStream_[index] = connection;
}

traffic::Stream
PcsNetwork::makeStream(const Connection& connection,
                       const config::TrafficConfig& traffic,
                       sim::Rng& rng) const
{
    traffic::Stream stream;
    stream.id = connection.stream;
    stream.src = connection.src;
    stream.dst = connection.dst;
    stream.cls = traffic.realTimeKind == config::RealTimeKind::Cbr
        ? router::TrafficClass::Cbr
        : router::TrafficClass::Vbr;
    stream.vcLane = connection.srcVc;
    stream.vtick = connection.vtick;
    stream.frameInterval = traffic.frameInterval;
    stream.startOffset = static_cast<sim::Tick>(rng.uniformInt(
        static_cast<std::uint64_t>(traffic.frameInterval)));
    return stream;
}

void
PcsNetwork::injectMessage(const traffic::MessageDesc& message)
{
    const auto index =
        static_cast<std::size_t>(message.stream.value());
    MW_ASSERT(index < byStream_.size());
    const Connection& connection = byStream_[index];

    SourceUnit& su =
        sources_[static_cast<std::size_t>(connection.src.value())];
    SourceVc& svc =
        su.vcs[static_cast<std::size_t>(connection.srcVc)];
    MW_ASSERT(svc.active);

    const sim::Tick now = simulator_.now();
    // vcLane stays 0: a circuit's VCs come from its connection
    // (srcVc/dstVc).
    router::Flit flit;
    flit.cls = message.cls;
    flit.stream = message.stream;
    flit.message = router::checkedMessageSeq(message.seq);
    flit.messageFlits = message.numFlits;
    flit.dest = connection.dst;
    flit.vtick = connection.vtick;
    flit.injectTime = now;

    for (int i = 0; i < message.numFlits; ++i) {
        flit.index = i;
        flit.type = i == 0 ? router::FlitType::Header
            : i == message.numFlits - 1 ? router::FlitType::Tail
                                        : router::FlitType::Body;
        flit.endOfFrame =
            message.endOfFrame && flit.type == router::FlitType::Tail;
        flit.stamp = svc.vclock.tick(now);
        flit.arrivalSeq = su.nextSeq++;
        svc.queue.push_back(flit);
    }
    refreshSource(connection.src.value(), connection.srcVc);
    kickSourceMux(connection.src.value());
}

void
PcsNetwork::receiveFlit(int node, const router::Flit& flit, int vc)
{
    DestUnit& du = dests_[static_cast<std::size_t>(node)];
    DestVc& dvc = du.vcs[static_cast<std::size_t>(vc)];
    MW_ASSERT(dvc.active);
    MW_ASSERT(dvc.buffer.size()
              < static_cast<std::size_t>(cfg_.flitBufferDepth));

    router::Flit& stamped = dvc.buffer.push_back(flit);
    stamped.stamp = dvc.vclock.tick(simulator_.now());
    stamped.arrivalSeq = du.nextSeq++;
    refreshDest(node, vc);
    kickDestMux(node);
}

void
PcsNetwork::creditReturned(int node, int vc)
{
    SourceUnit& su = sources_[static_cast<std::size_t>(node)];
    ++su.vcs[static_cast<std::size_t>(vc)].credits;
    refreshSource(node, vc);
    kickSourceMux(node);
}

void
PcsNetwork::refreshSource(int node, int vc)
{
    const SourceVc& svc = sources_[static_cast<std::size_t>(node)]
                              .vcs[static_cast<std::size_t>(vc)];
    if (!svc.queue.empty() && svc.credits > 0)
        sourceArb_.setEligible(node, vc, svc.queue.front());
    else
        sourceArb_.clearEligible(node, vc);
}

void
PcsNetwork::refreshDest(int node, int vc)
{
    const DestVc& dvc = dests_[static_cast<std::size_t>(node)]
                            .vcs[static_cast<std::size_t>(vc)];
    if (!dvc.buffer.empty())
        destArb_.setEligible(node, vc, dvc.buffer.front());
    else
        destArb_.clearEligible(node, vc);
}

void
PcsNetwork::kickSourceMux(int node)
{
    if (!sources_[static_cast<std::size_t>(node)].muxBusy)
        serveSourceMux(node);
}

void
PcsNetwork::serveSourceMux(int node)
{
    SourceUnit& su = sources_[static_cast<std::size_t>(node)];
    MW_ASSERT(!su.muxBusy);

    if (!sourceArb_.anyEligible(node))
        return;

    const int v = sourceArb_.pick(node);
    SourceVc& svc = su.vcs[static_cast<std::size_t>(v)];

    const router::Flit flit = svc.queue.front();
    svc.queue.pop_front();
    --svc.credits;
    refreshSource(node, v);
    svc.link->sendFlit(flit, svc.dstVc);

    su.muxBusy = true;
    simulator_.scheduleAfter(su.muxEvent, cycleTime_);
}

void
PcsNetwork::sourceMuxFired(int node)
{
    sources_[static_cast<std::size_t>(node)].muxBusy = false;
    serveSourceMux(node);
}

void
PcsNetwork::kickDestMux(int node)
{
    if (!dests_[static_cast<std::size_t>(node)].muxBusy)
        serveDestMux(node);
}

void
PcsNetwork::serveDestMux(int node)
{
    DestUnit& du = dests_[static_cast<std::size_t>(node)];
    MW_ASSERT(!du.muxBusy);

    if (!destArb_.anyEligible(node))
        return;

    const int v = destArb_.pick(node);
    DestVc& dvc = du.vcs[static_cast<std::size_t>(v)];

    const router::Flit flit = dvc.buffer.front();
    dvc.buffer.pop_front();
    refreshDest(node, v);
    dvc.link->sendCredit(dvc.srcVc);

    // The flit leaves on the ejection channel now; record delivery.
    const sim::Tick now = simulator_.now();
    ++flitsDelivered_;
    lane_.recordFlit(flit.stream, now);
    if (flit.isTail()) {
        if (flit.cls == router::TrafficClass::BestEffort) {
            lane_.recordBeMessage(flit.injectTime, flit.injectTime, now);
        } else {
            lane_.recordRtMessage(flit.stream, flit.injectTime, now);
            if (flit.endOfFrame)
                lane_.recordFrameDelivery(flit.stream, now);
        }
    }

    du.muxBusy = true;
    simulator_.scheduleAfter(du.muxEvent, cycleTime_);
}

void
PcsNetwork::destMuxFired(int node)
{
    dests_[static_cast<std::size_t>(node)].muxBusy = false;
    serveDestMux(node);
}

} // namespace mediaworm::pcs
