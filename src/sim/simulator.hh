/**
 * @file
 * The discrete-event simulation kernel.
 *
 * This replaces the commercial CSIM library used by the paper: a
 * single-threaded event loop over an EventQueue, plus a root random
 * number generator. All model components hold a reference to the
 * Simulator to read the clock and schedule their events.
 */

#ifndef MEDIAWORM_SIM_SIMULATOR_HH
#define MEDIAWORM_SIM_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace mediaworm::sim {

/**
 * A component that elides provably-no-op self-wakeups (see LazyTick).
 *
 * Elided wakeups never enter the event queue, so at the end of every
 * run() the kernel asks each registered drain to account for the ones
 * whose time has passed (they would have fired as no-ops within the
 * run) and, at experiment teardown, whether any are still outstanding
 * (they would have been left in the queue, marking the run
 * truncated). Lazy link credits settle the same way: a drain applies
 * those due within the run and reports the rest as outstanding.
 */
class LazyDrain
{
  public:
    virtual ~LazyDrain() = default;

    /**
     * Credits every elided wakeup with readyAt <= @p until as fired,
     * and applies the link credits due by then (router/link.hh);
     * returns how many wakeups were credited.
     */
    virtual std::uint64_t flushLazy(Tick until) = 0;

    /** True if any elided wakeup or unapplied link credit is still
     *  outstanding. */
    virtual bool lazyPending() const = 0;
};

/** Event-driven simulation engine. */
class Simulator
{
  public:
    /** Creates a simulator whose root RNG uses @p seed. */
    explicit Simulator(std::uint64_t seed = 1);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** The pending-event queue. */
    EventQueue& queue() { return queue_; }

    /** Root random generator; split() it per component. */
    Rng& rng() { return rng_; }

    /** Schedules @p event at absolute time @p when (>= now). */
    void
    schedule(Event& event, Tick when)
    {
        MW_ASSERT(when >= now_);
        queue_.schedule(event, when);
    }

    /** Schedules @p event @p delay ticks from now. */
    void
    scheduleAfter(Event& event, Tick delay)
    {
        MW_ASSERT(delay >= 0);
        queue_.schedule(event, now_ + delay);
    }

    /** Cancels @p event if scheduled. */
    void deschedule(Event& event) { queue_.deschedule(event); }

    /** Moves @p event to absolute time @p when (>= now). */
    void reschedule(Event& event, Tick when);

    /**
     * Runs events until the queue drains or the clock passes @p until.
     *
     * Events scheduled exactly at @p until still fire.
     * @return Number of events fired.
     */
    std::uint64_t run(Tick until);

    /** Runs until the event queue is empty. */
    std::uint64_t runToCompletion();

    /**
     * Fires exactly one event, if any.
     * @return True if an event fired.
     */
    bool step();

    /** Total events fired since construction. */
    std::uint64_t eventsFired() const { return eventsFired_; }

    /** See EventQueue::tierCounters(). */
    const auto& tierCounters() const { return queue_.tierCounters(); }

    // --- lazy-tick elision ------------------------------------------

    /** See EventQueue::reserveSeq(). */
    std::uint64_t reserveSeq() { return queue_.reserveSeq(); }

    /** See EventQueue::scheduleReserved(); @p when must be >= now. */
    void
    scheduleReserved(Event& event, Tick when, std::uint64_t seq)
    {
        MW_ASSERT(when >= now_);
        queue_.scheduleReserved(event, when, seq);
    }

    /**
     * Would an event keyed (when, seq) already have fired? True iff
     * its key precedes the key of the event being fired right now -
     * the discriminator a LazyTick kick uses to decide between
     * re-materializing its wakeup (still ahead of us) and crediting
     * it as an already-fired no-op (behind us).
     */
    bool
    keyAlreadyFired(Tick when, std::uint64_t seq) const
    {
        return when < now_ || (when == now_ && seq < curSeq_);
    }

    /** Counts @p n elided no-op wakeups as fired events. */
    void
    creditElided(std::uint64_t n)
    {
        eventsFired_ += n;
        elidedEvents_ += n;
    }

    /**
     * Total elided (never-enqueued) no-op wakeups since construction;
     * a subset of eventsFired(). Each one is a queue insert, pop and
     * virtual dispatch the kernel skipped; it still counts as the
     * event it stands for, so event counts and digests do not depend
     * on what was elided.
     */
    std::uint64_t elidedEvents() const { return elidedEvents_; }

    /**
     * Idle ticks the clock jumped over instead of draining: for every
     * inter-event gap, the ticks strictly between the previous and
     * next event (plus the final jump to the run() horizon). A pure
     * reporting counter - it depends on how the simulation is sharded
     * and is excluded from deterministic hashes.
     */
    std::uint64_t idleTicksSkipped() const { return idleTicksSkipped_; }

    /** Registers @p drain for end-of-run lazy-wakeup accounting. */
    void addLazyDrain(LazyDrain* drain) { lazyDrains_.push_back(drain); }

    /**
     * Credits every elided wakeup with readyAt <= @p until, without
     * advancing the clock, by asking every registered drain (one scan
     * over this kernel's routers and NIs); the drains also apply the
     * link credits due by then. run() calls this on its way out; the
     * PDES executor also calls it directly after its epoch loop,
     * where the final window may stop short of the cap while elided
     * no-op wakeups - which, had they been queued, would have kept
     * epochs running to fire them - still sit between the two.
     * Either way every event up to @p until has fired.
     * @return Number of wakeups credited.
     */
    std::uint64_t
    settleLazy(Tick until)
    {
        std::uint64_t credited = 0;
        for (LazyDrain* drain : lazyDrains_)
            credited += drain->flushLazy(until);
        creditElided(credited);
        return credited;
    }

    /** True if any registered drain still holds an elided wakeup or
     *  an unapplied link credit: after run(until) settles, one due
     *  beyond until, which a queued event would have marked as
     *  pending work. */
    bool lazyTickPending() const;

  private:
    EventQueue queue_;
    Rng rng_;
    Tick now_ = 0;
    std::uint64_t eventsFired_ = 0;
    std::uint64_t elidedEvents_ = 0;
    std::uint64_t idleTicksSkipped_ = 0;
    /** Tie-break key of the event currently being fired. */
    std::uint64_t curSeq_ = 0;
    std::vector<LazyDrain*> lazyDrains_;
};

/**
 * Elidable self-rescheduling service slot.
 *
 * The router and NI multiplexers re-arm a wakeup one cycle after
 * every service; when the arbiter mask is empty that wakeup is a
 * provable no-op (serve() returns without side effects), so queueing
 * it would only pay an insert, pop and dispatch. LazyTick elides
 * exactly those wakeups, and each one still counts as the event it
 * stands for:
 *
 *  - arm() with an empty mask reserves the wakeup's tie-break seq at
 *    the same program point schedule() would have consumed it (so
 *    every later event's key is unchanged) and just records
 *    (readyAt, seq) instead of inserting.
 *  - kick() - called when eligibility may have appeared - compares
 *    that key against the event being fired right now: if the wakeup
 *    is still ahead it is re-materialized at its exact original
 *    position via scheduleReserved(); if it is behind, it would
 *    already have fired as a no-op, so it is credited and the caller
 *    serves inline (just as it would after a non-busy slot).
 *  - flushLazy()/flush() settle the remaining no-ops at the end of
 *    each run() window (Simulator::settleLazy scans every drain),
 *    and pending() reports wakeups beyond the horizon (queued, they
 *    would have stayed in the queue, marking the run truncated).
 */
class LazyTick
{
  public:
    enum class State : std::uint8_t { Idle, Armed, Lazy };

    /** True if the slot has a wakeup outstanding (armed or elided). */
    bool busy() const { return state_ != State::Idle; }

    /**
     * Re-arms after a service: schedules @p event @p delay ticks out,
     * or - when @p maskEmpty says the wakeup would be a no-op - elides
     * it. Either way one tie-break seq is consumed, keeping the
     * queue's key evolution identical.
     */
    void
    arm(Simulator& sim, Event& event, Tick delay, bool maskEmpty)
    {
        if (maskEmpty) {
            readyAt_ = sim.now() + delay;
            seq_ = sim.reserveSeq();
            state_ = State::Lazy;
        } else {
            sim.scheduleAfter(event, delay);
            state_ = State::Armed;
        }
    }

    /** The scheduled wakeup fired; the slot is free again. */
    void fired() { state_ = State::Idle; }

    /**
     * Eligibility may have appeared. Returns true if the caller
     * should serve inline now (slot idle, or its elided wakeup
     * already counts as fired); false if a wakeup ahead of us will
     * do the serving.
     */
    bool
    kick(Simulator& sim, Event& event)
    {
        switch (state_) {
        case State::Idle:
            return true;
        case State::Armed:
            return false;
        case State::Lazy:
            if (sim.keyAlreadyFired(readyAt_, seq_)) {
                sim.creditElided(1);
                state_ = State::Idle;
                return true;
            }
            sim.scheduleReserved(event, readyAt_, seq_);
            state_ = State::Armed;
            return false;
        }
        return false;
    }

    /** End-of-run accounting; see LazyDrain::flushLazy(). */
    std::uint64_t
    flush(Tick until)
    {
        if (state_ == State::Lazy && readyAt_ <= until) {
            state_ = State::Idle;
            return 1;
        }
        return 0;
    }

    /** True if an elided wakeup is outstanding. */
    bool pending() const { return state_ == State::Lazy; }

  private:
    Tick readyAt_ = 0;
    std::uint64_t seq_ = 0;
    State state_ = State::Idle;
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_SIMULATOR_HH
