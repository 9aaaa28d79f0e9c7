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
        creditOutbox_.push_back({vc, deliver_at});
        return;
    }
    creditPipe_.push_back({vc, deliver_at});
    // Any earlier credit for a starved VC already holds the event,
    // and delivery times are monotone, so only an idle event needs
    // this credit's VC checked.
    if (!creditEvent_.scheduled()
        && ((creditReceiver_->starvedVcs(creditPort_)
             >> static_cast<unsigned>(vc))
            & 1)) {
        senderSim_->schedule(creditEvent_, deliver_at);
    }
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
    // The decision sendCredit() makes on one shard, taken late: the
    // flush comes before any moved credit falls due, and a starved VC
    // stays starved until a credit for it arrives.
    armCreditEvent();
    return moved;
}

int
Link::flitsInFlight(int vc) const
{
    int count = 0;
    for (std::size_t i = 0; i < flitPipe_.size(); ++i)
        count += flitPipe_[i].vc == vc ? 1 : 0;
    for (const InFlightFlit& entry : flitOutbox_)
        count += entry.vc == vc ? 1 : 0;
    return count;
}

int
Link::creditsInFlight(int vc) const
{
    int count = 0;
    for (std::size_t i = 0; i < creditPipe_.size(); ++i)
        count += creditPipe_[i].vc == vc ? 1 : 0;
    for (const InFlightCredit& entry : creditOutbox_)
        count += entry.vc == vc ? 1 : 0;
    return count;
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
        receiver_->receiveFlit(receiverPort_, entry.flit, entry.vc);
        flitPipe_.pop_front();
    }
    if (!flitPipe_.empty())
        receiverSim_->schedule(flitEvent_, flitPipe_.front().deliverAt);
}

void
Link::deliverCredits()
{
    // Scheduled for a credit to a starved VC. Every credit due now
    // gets the sender's full per-credit reaction, in pipe order, just
    // as a delivery event per tick would apply it; the sender's own
    // collects and wakeups stand aside until the walk ends.
    const sim::Tick now = senderSim_->now();
    delivering_ = true;
    while (!creditPipe_.empty()
           && creditPipe_.front().deliverAt <= now) {
        const int vc = creditPipe_.front().vc;
        creditPipe_.pop_front();
        creditReceiver_->creditReturned(creditPort_, vc);
    }
    delivering_ = false;
    armCreditEvent();
}

void
Link::armCreditEvent()
{
    const std::uint64_t starved = creditReceiver_->starvedVcs(creditPort_);
    if (starved == 0)
        return;
    for (std::size_t i = 0; i < creditPipe_.size(); ++i) {
        const InFlightCredit& entry = creditPipe_[i];
        if (creditEvent_.scheduled()
            && entry.deliverAt >= creditEvent_.when())
            return;
        if ((starved >> static_cast<unsigned>(entry.vc)) & 1) {
            if (creditEvent_.scheduled())
                senderSim_->reschedule(creditEvent_, entry.deliverAt);
            else
                senderSim_->schedule(creditEvent_, entry.deliverAt);
            return;
        }
    }
}

bool
Link::creditEventCovers(std::uint64_t vcs) const
{
    for (std::size_t i = 0; i < creditPipe_.size(); ++i) {
        const InFlightCredit& entry = creditPipe_[i];
        if ((vcs >> static_cast<unsigned>(entry.vc)) & 1) {
            return creditEvent_.scheduled()
                && creditEvent_.when() <= entry.deliverAt;
        }
    }
    return true;
}

} // namespace mediaworm::router
