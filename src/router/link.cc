#include "router/link.hh"

#include "sim/logging.hh"

namespace mediaworm::router {

namespace {

/** Initial pipe capacity; pipes are credit-bounded and small. */
constexpr std::size_t kPipeCapacity = 32;

} // namespace

Link::Link(sim::Simulator& simulator, sim::Tick delay, std::string name,
           ChannelIds ids)
    : senderSim_(&simulator), receiverSim_(&simulator), delay_(delay),
      name_(std::move(name)), flitPipe_(kPipeCapacity),
      creditPipe_(kPipeCapacity), flitEvent_(this, "Link::deliverFlits"),
      creditEvent_(this, "Link::deliverCredits")
{
    MW_ASSERT(delay >= 0);
    if (ids.flit >= 0)
        flitEvent_.setCanonicalSeq(static_cast<std::uint64_t>(ids.flit));
    if (ids.credit >= 0) {
        creditEvent_.setCanonicalSeq(
            static_cast<std::uint64_t>(ids.credit));
    }
}

void
Link::bindShards(sim::Simulator& sender, sim::Simulator& receiver)
{
    senderSim_ = &sender;
    receiverSim_ = &receiver;
    crossShard_ = &sender != &receiver;
    // Cross-shard merge order must not depend on schedule-call
    // order, which only canonical keys guarantee.
    if (crossShard_) {
        MW_ASSERT(flitEvent_.hasCanonicalSeq()
                  && creditEvent_.hasCanonicalSeq());
    }
}

void
Link::connectReceiver(FlitReceiver* receiver)
{
    receiver_ = receiver;
}

void
Link::connectCreditReceiver(CreditReceiver* receiver)
{
    creditReceiver_ = receiver;
}

void
Link::sendFlit(const Flit& flit, int vc)
{
    MW_ASSERT(receiver_ != nullptr);
    ++flitsSent_;
    const sim::Tick deliver_at = senderSim_->now() + delay_;
    if (crossShard_) {
        flitOutbox_.push_back({flit, vc, deliver_at});
        return;
    }
    flitPipe_.push_back({flit, vc, deliver_at});
    if (!flitEvent_.scheduled())
        receiverSim_->schedule(flitEvent_, flitPipe_.front().deliverAt);
}

void
Link::sendCredit(int vc)
{
    MW_ASSERT(creditReceiver_ != nullptr);
    const sim::Tick deliver_at = receiverSim_->now() + delay_;
    if (crossShard_) {
        // Same coalescing as the pipe: the outbox is drained in
        // order, so only adjacent entries can share a tick.
        if (!creditOutbox_.empty()) {
            InFlightCredit& newest = creditOutbox_.back();
            if (newest.deliverAt == deliver_at && newest.vc == vc) {
                ++newest.count;
                return;
            }
        }
        creditOutbox_.push_back({vc, 1, deliver_at});
        return;
    }
    // Coalesce with the newest entry when it matches; same-tick
    // credits for one VC collapse into a count, and delivery order
    // across VCs is untouched because only adjacent entries merge.
    if (!creditPipe_.empty()) {
        InFlightCredit& newest = creditPipe_.back();
        if (newest.deliverAt == deliver_at && newest.vc == vc) {
            ++newest.count;
            return;
        }
    }
    creditPipe_.push_back({vc, 1, deliver_at});
    if (!creditEvent_.scheduled())
        senderSim_->schedule(creditEvent_, creditPipe_.front().deliverAt);
}

std::uint64_t
Link::flushFlitOutbox()
{
    if (flitOutbox_.empty())
        return 0;
    const std::uint64_t moved = flitOutbox_.size();
    // Delivery times are monotone in send order (constant delay,
    // monotone sender clock), so appending preserves pipe order and
    // any already-scheduled delivery event stays earliest.
    for (const InFlightFlit& entry : flitOutbox_)
        flitPipe_.push_back(entry);
    flitOutbox_.clear();
    if (!flitEvent_.scheduled())
        receiverSim_->schedule(flitEvent_, flitPipe_.front().deliverAt);
    return moved;
}

std::uint64_t
Link::flushCreditOutbox()
{
    if (creditOutbox_.empty())
        return 0;
    const std::uint64_t moved = creditOutbox_.size();
    for (const InFlightCredit& entry : creditOutbox_)
        creditPipe_.push_back(entry);
    creditOutbox_.clear();
    if (!creditEvent_.scheduled())
        senderSim_->schedule(creditEvent_, creditPipe_.front().deliverAt);
    return moved;
}

void
Link::deliverFlits()
{
    const sim::Tick now = receiverSim_->now();
    while (!flitPipe_.empty() && flitPipe_.front().deliverAt <= now) {
        // Deliver by reference: nothing reached from receiveFlit()
        // pushes onto this link's flit pipe (only the upstream output
        // mux sends here, via a scheduled event), so the front entry
        // stays put until the pop below - no 80-byte stack copy.
        const InFlightFlit& entry = flitPipe_.front();
        receiver_->receiveFlit(entry.flit, entry.vc);
        flitPipe_.pop_front();
    }
    if (!flitPipe_.empty())
        receiverSim_->schedule(flitEvent_, flitPipe_.front().deliverAt);
}

void
Link::deliverCredits()
{
    const sim::Tick now = senderSim_->now();
    while (!creditPipe_.empty()
           && creditPipe_.front().deliverAt <= now) {
        InFlightCredit entry = creditPipe_.front();
        creditPipe_.pop_front();
        for (int i = 0; i < entry.count; ++i)
            creditReceiver_->creditReturned(entry.vc);
    }
    if (!creditPipe_.empty())
        senderSim_->schedule(creditEvent_, creditPipe_.front().deliverAt);
}

} // namespace mediaworm::router
