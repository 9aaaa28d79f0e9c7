#include "sim/simulator.hh"

#include <limits>

#include "sim/logging.hh"

namespace mediaworm::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

void
Simulator::reschedule(Event& event, Tick when)
{
    MW_ASSERT(when >= now_);
    queue_.reschedule(event, when);
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    Event& event = queue_.pop();
    MW_ASSERT(event.when() >= now_);
    now_ = event.when();
    curSeq_ = event.seq();
    ++eventsFired_;
    event.fire();
    return true;
}

std::uint64_t
Simulator::run(Tick until)
{
    const std::uint64_t before = eventsFired_;
    for (;;) {
        Event* event = queue_.popIfAtOrBefore(until);
        if (event == nullptr)
            break;
        MW_DEBUG_ASSERT(event->when() >= now_);
        // Reporting only (hash-excluded): idle ticks jumped over
        // between consecutive events.
        if (event->when() > now_)
            idleTicksSkipped_ +=
                static_cast<std::uint64_t>(event->when() - now_) - 1;
        now_ = event->when();
        curSeq_ = event->seq();
        ++eventsFired_;
        event->fire();
    }
    if (now_ < until) {
        idleTicksSkipped_ += static_cast<std::uint64_t>(until - now_);
        now_ = until;
    }
    // Settle elided no-op wakeups whose time fell inside this window:
    // queued, they would have fired (as no-ops) before returning, so
    // the credit must land inside this run() for eventsFired() deltas
    // - per-shard PDES stats included - to count each elided wakeup
    // as the event it stands for.
    settleLazy(until);
    return eventsFired_ - before;
}

std::uint64_t
Simulator::runToCompletion()
{
    const std::uint64_t before = eventsFired_;
    while (step()) {
    }
    settleLazy(std::numeric_limits<Tick>::max());
    return eventsFired_ - before;
}

bool
Simulator::lazyTickPending() const
{
    for (const LazyDrain* drain : lazyDrains_) {
        if (drain->lazyPending())
            return true;
    }
    return false;
}

} // namespace mediaworm::sim
