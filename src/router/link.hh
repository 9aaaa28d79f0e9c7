/**
 * @file
 * Physical channel model: a unidirectional flit pipe with a reverse
 * credit wire.
 *
 * The Link does no arbitration - the sender's VC multiplexer already
 * serialized flits at one per cycle - it only adds propagation delay
 * and delivers in order. Credits flow the other way with the same
 * delay, implementing credit-based flow control between the sender's
 * output unit and the receiver's input buffers. An ejection link
 * carries none: the NI sink drains each flit on arrival, so the port
 * feeding it spends no credits (WormholeRouter::connectSinkLink).
 *
 * Each end of a link is a component and one of its ports: the link
 * stores the port it was connected with (connectReceiver,
 * connectCreditReceiver) and passes it on every call, as netsim's
 * Channel stores its endpoint RouterPortPair, so a router or the PCS
 * switch serves all of its links itself with no per-port adapter.
 *
 * Flits are pushed: each delivery tick fires the link's flit event,
 * which hands the due flits to the receiver. Credits are pulled
 * (netsim's Channel::get_credit): sendCredit() only appends one
 * entry per credit to the credit pipe, and the sender applies every
 * credit whose deliverAt has passed (collectCredits) before it reads
 * a credit counter. The credit event is scheduled only for a credit
 * to a starved VC (CreditReceiver::starvedVcs) - one that holds a
 * flit, or a cut-through header, that the credit would let move - at
 * that credit's deliverAt. When it fires it applies every due credit
 * in pipe order with the sender's per-credit reaction
 * (creditReturned), exactly as an event per delivery tick would. A
 * credit to a VC that is not starved changes no arbitration
 * decision, so waiting for the pull moves no model output; it saves
 * the event.
 *
 * A link is also the only place simulation state crosses routers,
 * which makes it the shard boundary for conservative-parallel runs
 * (sim/pdes.hh). Each direction is a channel with its own consumer
 * shard: the flit channel is consumed where the receiver lives, the
 * credit channel where the sender lives. When the two sides are
 * bound to different shard Simulators (bindShards), a send appends
 * to a plain outbox instead of touching the consumer's state; the
 * consumer shard drains the outbox at the next epoch boundary via
 * flushFlitOutbox()/flushCreditOutbox(), which is before any of it
 * falls due, so the decision to schedule a credit event sees the
 * same credits on every shard count. Channel delivery events carry
 * canonical tie-break keys (ChannelIds), so their order among
 * same-tick events is identical whether the link is intra-shard,
 * cross-shard, or running single-threaded.
 */

#ifndef MEDIAWORM_ROUTER_LINK_HH
#define MEDIAWORM_ROUTER_LINK_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "router/flit.hh"
#include "sim/event.hh"
#include "sim/ring.hh"
#include "sim/simulator.hh"

namespace mediaworm::router {

/**
 * Consumer side of a link: a router input port, which returns a
 * credit for each flit it frees, a PCS destination link, or an NI
 * sink, which returns none. @p port is the one the link was
 * connected with (Link::connectReceiver); an NI ignores it.
 */
class FlitReceiver
{
  public:
    virtual ~FlitReceiver() = default;

    /** Delivers @p flit into virtual channel @p vc of @p port. */
    virtual void receiveFlit(int port, const Flit& flit, int vc) = 0;
};

/**
 * Producer side of a link: a router output port, a PCS source link
 * or an NI injection mux, which receives returned buffer credits.
 * @p port is the one the link was connected with
 * (Link::connectCreditReceiver); an NI ignores it.
 */
class CreditReceiver
{
  public:
    virtual ~CreditReceiver() = default;

    /** Every VC: the starvedVcs() of a receiver that never
     *  collects credits itself. */
    static constexpr std::uint64_t kAllVcs = ~std::uint64_t{0};

    /**
     * One buffer slot of virtual channel @p vc was freed behind the
     * link that @p port drives. Called from the link's credit event,
     * at the credit's deliverAt, once per credit and in pipe order.
     */
    virtual void creditReturned(int port, int vc) = 0;

    /**
     * The VCs of @p port that wait on a credit, bit v for VC v. The
     * link fires its credit event only at the deliverAt of a credit
     * to one of them; other credits stay in the pipe until the
     * sender collects them (Link::collectCredits). A receiver that
     * never collects returns kAllVcs, and so takes every credit from
     * the event as it falls due.
     */
    virtual std::uint64_t starvedVcs(int port) const = 0;
};

/**
 * Canonical tie-break keys for a link's two delivery events, unique
 * across the network (topology builders assign forLinkIndex). The
 * default (-1) keeps the per-queue schedule counter - fine for
 * hand-wired unit tests, required to be canonical for any link built
 * into an experiment topology so sharded runs merge identically.
 */
struct ChannelIds
{
    std::int64_t flit = -1;
    std::int64_t credit = -1;

    /** Keys for the @p index 'th link of a network. */
    static ChannelIds
    forLinkIndex(std::size_t index)
    {
        return {static_cast<std::int64_t>(2 * index),
                static_cast<std::int64_t>(2 * index + 1)};
    }
};

/** Unidirectional physical channel with a credit backchannel. */
class Link
{
  public:
    /**
     * @param simulator The owning simulation kernel (both sides,
     *        until bindShards() says otherwise).
     * @param delay One-way propagation delay (both directions).
     * @param name Diagnostic name.
     * @param ids Canonical delivery-event keys; default keeps the
     *        dynamic schedule counter.
     */
    Link(sim::Simulator& simulator, sim::Tick delay, std::string name,
         ChannelIds ids = {});

    /**
     * Splits the link across shards: the sender's output unit lives
     * on @p sender, the flit receiver on @p receiver. Requires
     * canonical ChannelIds when the shards differ. Call during
     * construction, before any traffic.
     */
    void bindShards(sim::Simulator& sender, sim::Simulator& receiver);

    /** True if bindShards() put the two sides on different shards. */
    bool crossShard() const { return crossShard_; }

    /** Attaches the downstream flit consumer, which the link calls
     *  with @p port. */
    void
    connectReceiver(FlitReceiver* receiver, int port = 0)
    {
        receiver_ = receiver;
        receiverPort_ = port;
    }

    /** Attaches the upstream credit consumer, which the link calls
     *  with @p port. */
    void
    connectCreditReceiver(CreditReceiver* receiver, int port = 0)
    {
        creditReceiver_ = receiver;
        creditPort_ = port;
    }

    /** Sends @p flit on VC @p vc; delivered after the link delay.
     *  Caller must be on the sender shard. */
    void sendFlit(const Flit& flit, int vc);

    /** Returns one credit for VC @p vc to the sender. Caller must
     *  be on the receiver shard. */
    void sendCredit(int vc);

    /**
     * Sender side: applies every credit whose deliverAt is at or
     * before @p until, in pipe order, as @p apply(vc, deliverAt),
     * without the per-credit creditReturned() reaction.
     * The sender calls it with now() before it reads a credit
     * counter, and with the run horizon when a run() settles.
     * Credits due at or after the pending credit event's tick are
     * that event's to apply, one reaction at a time, at its place in
     * the tick, and so are all of them while it delivers. (With
     * canonical ChannelIds the event fires ahead of every sender-side
     * event of its tick, so the cut matters only for links keyed by
     * the schedule counter.)
     */
    template <class Apply>
    void
    collectCredits(sim::Tick until, Apply&& apply)
    {
        if (delivering_)
            return;
        if (creditEvent_.scheduled())
            until = std::min(until, creditEvent_.when() - 1);
        while (!creditPipe_.empty()
               && creditPipe_.front().deliverAt <= until) {
            const InFlightCredit entry = creditPipe_.front();
            creditPipe_.pop_front();
            apply(entry.vc, entry.deliverAt);
        }
    }

    /**
     * Sender side: a VC just started waiting for a credit (its bit
     * rose in starvedVcs()). Schedules the credit event, or moves it
     * earlier, to the first credit in the pipe for a starved VC; if
     * none is there yet, its send or outbox flush schedules it. Call
     * after collecting, so that credit is not yet due.
     */
    void
    awaitCredit()
    {
        if (!delivering_)
            armCreditEvent();
    }

    /**
     * Moves cross-shard flits from the outbox into the delivery
     * pipe, scheduling on the receiver shard. Called only from the
     * receiver shard's worker, between PDES epoch barriers.
     * @return Number of flits moved.
     */
    std::uint64_t flushFlitOutbox();

    /** Credit-channel counterpart of flushFlitOutbox(); called from
     *  the sender shard's worker. @return Credit entries moved. */
    std::uint64_t flushCreditOutbox();

    /** Flits transmitted since construction. */
    std::uint64_t flitsSent() const { return flitsSent_; }

    /** True if a credit is on the wire (pipe or outbox): after a
     *  run() settles, one that falls due beyond its horizon. */
    bool
    creditsPending() const
    {
        return !creditPipe_.empty() || !creditOutbox_.empty();
    }

    /** True unless a credit for one of @p vcs is in the pipe while
     *  the credit event is unscheduled or set after it. */
    bool creditEventCovers(std::uint64_t vcs) const;

    /** Flits of VC @p vc on the wire: in the pipe or the outbox. */
    int flitsInFlight(int vc) const;

    /** Credits of VC @p vc not yet applied by the sender: in the
     *  pipe or the outbox, one entry each. */
    int creditsInFlight(int vc) const;

    /** Diagnostic name. */
    const std::string& name() const { return name_; }

    /** One-way propagation delay. */
    sim::Tick delay() const { return delay_; }

  private:
    struct InFlightFlit
    {
        Flit flit;
        int vc;
        sim::Tick deliverAt;
    };

    /** One credit on the wire. */
    struct InFlightCredit
    {
        int vc;
        sim::Tick deliverAt;
    };

    void deliverFlits();
    void deliverCredits();
    /** Schedules the credit event, or moves it earlier, to the first
     *  pipe credit for a VC the sender starves on. */
    void armCreditEvent();

    /** Sender-side clock and credit-delivery queue. */
    sim::Simulator* senderSim_;
    /** Receiver-side clock and flit-delivery queue. */
    sim::Simulator* receiverSim_;
    sim::Tick delay_;
    std::string name_;
    bool crossShard_ = false;

    FlitReceiver* receiver_ = nullptr;
    CreditReceiver* creditReceiver_ = nullptr;
    int receiverPort_ = 0;
    int creditPort_ = 0;

    sim::Ring<InFlightFlit> flitPipe_;
    sim::Ring<InFlightCredit> creditPipe_;
    /**
     * Cross-shard staging: written by the producer side during a
     * PDES epoch, drained by the consumer side between the epoch
     * barriers (which order the accesses); never touched on the
     * intra-shard fast path.
     */
    std::vector<InFlightFlit> flitOutbox_;
    std::vector<InFlightCredit> creditOutbox_;
    sim::MemberFuncEvent<&Link::deliverFlits> flitEvent_;
    sim::MemberFuncEvent<&Link::deliverCredits> creditEvent_;

    std::uint64_t flitsSent_ = 0;
    /** True while deliverCredits() walks the pipe. */
    bool delivering_ = false;
};

} // namespace mediaworm::router

#endif // MEDIAWORM_ROUTER_LINK_HH
