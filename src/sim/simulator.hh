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

#include <algorithm>
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
 * truncated).
 */
class LazyDrain
{
  public:
    virtual ~LazyDrain() = default;

    /**
     * Credits every elided wakeup with readyAt <= @p until as fired;
     * returns how many were credited.
     */
    virtual std::uint64_t flushLazy(Tick until) = 0;

    /** True if any elided wakeup is still outstanding. */
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

    // --- batched dispatch and lazy-tick elision -------------------

    /**
     * Enables/disables batched dispatch AND lazy-tick elision (both
     * default on). Off restores the exact legacy per-event path;
     * results are bit-identical either way - the toggle exists for
     * differential testing and micro-benchmark A/B comparison.
     */
    void setBatchedDispatch(bool on) { batched_ = on; }

    /** True if batched dispatch / lazy elision is enabled. */
    bool batchedDispatch() const { return batched_; }

    /**
     * Pops and returns the next event iff it fires at the current
     * tick and targets @p sink; nullptr ends the batch. Call only
     * from inside BatchSink::fireBatch(). Members come off the live
     * queue one at a time, so events inserted mid-batch still fire
     * in exact (when, seq) order.
     */
    Event*
    nextBatchMember(BatchSink* sink)
    {
        Event* next = queue_.peekEarliest();
        if (next == nullptr || next->when() != now_
            || next->batchSink() != sink) {
            return nullptr;
        }
        queue_.popFront(*next);
        curSeq_ = next->seq();
        ++eventsFired_;
        return next;
    }

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
     * a subset of eventsFired(). The idle-epoch fast-forward counter:
     * each one is a queue insert, pop and virtual dispatch the kernel
     * skipped while remaining bit-identical to the legacy path.
     */
    std::uint64_t elidedEvents() const { return elidedEvents_; }

    /**
     * Enables/disables the idle-epoch fast-forward bookkeeping
     * (default on): the O(1) lazy-wakeup settle index that lets run()
     * and the PDES epoch loop skip the per-drain scan when no elided
     * wakeup can mature in the window, plus the skipped-tick
     * accounting. Off restores the always-scan legacy path; results
     * are bit-identical either way - the toggle exists for the
     * differential determinism goldens.
     */
    void setFastForward(bool on) { fastForward_ = on; }

    /** True if fast-forward bookkeeping is enabled. */
    bool fastForward() const { return fastForward_; }

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
     * advancing the clock. run() calls this on its way out; the PDES
     * executor also calls it directly after its epoch loop, where the
     * final window may stop short of the cap while elided no-op
     * wakeups - which the legacy path would have kept running epochs
     * to fire - still sit between the two.
     * @return Number of wakeups credited.
     */
    std::uint64_t
    settleLazy(Tick until)
    {
        if (!batched_)
            return 0;
        // Fast-forward fast path: the (count, min-readyAt) index
        // proves no elided wakeup matures by `until`, so the whole
        // per-drain scan - O(ports) across every component, paid once
        // per PDES epoch - collapses to this one comparison.
        if (fastForward_ && (lazyCount_ == 0 || lazyMin_ > until))
            return 0;
        std::uint64_t credited = 0;
        for (LazyDrain* drain : lazyDrains_)
            credited += drain->flushLazy(until);
        creditElided(credited);
        MW_DEBUG_ASSERT(lazyCount_ >= credited);
        lazyCount_ -= credited;
        // Everything at or before `until` was just flushed, so the
        // surviving minimum is past the window; kTickNever when the
        // index is empty.
        lazyMin_ = lazyCount_ == 0
                       ? kTickNever
                       : std::max(lazyMin_, until + 1);
        return credited;
    }

    /** True if any registered drain still holds an elided wakeup. */
    bool lazyTickPending() const;

  private:
    friend class LazyTick;

    /** A LazyTick elided a wakeup maturing at @p readyAt. */
    void
    noteLazyArmed(Tick readyAt)
    {
        ++lazyCount_;
        if (readyAt < lazyMin_)
            lazyMin_ = readyAt;
    }

    /** A LazyTick settled one elided wakeup (kick credit or rearm).
     *  lazyMin_ stays a conservative lower bound; it re-tightens at
     *  the next settleLazy(). */
    void
    noteLazySettled()
    {
        MW_DEBUG_ASSERT(lazyCount_ > 0);
        if (--lazyCount_ == 0)
            lazyMin_ = kTickNever;
    }

    EventQueue queue_;
    Rng rng_;
    Tick now_ = 0;
    std::uint64_t eventsFired_ = 0;
    std::uint64_t elidedEvents_ = 0;
    std::uint64_t idleTicksSkipped_ = 0;
    /** Tie-break key of the event currently being fired. */
    std::uint64_t curSeq_ = 0;
    bool batched_ = true;
    bool fastForward_ = true;
    std::vector<LazyDrain*> lazyDrains_;
    /**
     * Fast-forward settle index over every registered drain's elided
     * wakeups: exact outstanding count, plus a conservative-low bound
     * on the earliest readyAt (never above the true minimum, so the
     * settleLazy() fast path can only err toward scanning).
     */
    std::uint64_t lazyCount_ = 0;
    Tick lazyMin_ = kTickNever;
};

/**
 * Elidable self-rescheduling service slot.
 *
 * The router and NI multiplexers re-arm a wakeup one cycle after
 * every service; when the arbiter mask is empty that wakeup is a
 * provable no-op (serve() returns without side effects), yet the
 * legacy path still paid a queue insert, pop and dispatch for it.
 * LazyTick elides exactly those wakeups while preserving
 * bit-identical behavior:
 *
 *  - arm() with an empty mask reserves the wakeup's tie-break seq at
 *    the same program point schedule() would have consumed it (so
 *    every later event's key is unchanged) and just records
 *    (readyAt, seq) instead of inserting.
 *  - kick() - called when eligibility may have appeared - compares
 *    that key against the event being fired right now: if the wakeup
 *    is still ahead it is re-materialized at its exact original
 *    position via scheduleReserved(); if it is behind, it already
 *    fired as a no-op in the legacy order, so it is credited and the
 *    caller serves inline (just as it would after a non-busy slot).
 *  - flushLazy()/flush() settle the remaining no-ops at the end of
 *    each run() window, and pending() reports wakeups beyond the
 *    horizon (the legacy path would have left those in the queue,
 *    marking the run truncated).
 */
class LazyTick
{
  public:
    enum class State : std::uint8_t { Idle, Armed, Lazy };

    /** True if the slot has a wakeup outstanding (armed or elided). */
    bool busy() const { return state_ != State::Idle; }

    /**
     * Re-arms after a service: schedules @p event @p delay ticks out,
     * or - when @p maskEmpty says the wakeup would be a no-op and the
     * simulator runs batched - elides it. Either way one tie-break
     * seq is consumed, keeping the queue's key evolution identical.
     */
    void
    arm(Simulator& sim, Event& event, Tick delay, bool maskEmpty)
    {
        if (sim.batched_ && maskEmpty) {
            readyAt_ = sim.now() + delay;
            seq_ = sim.reserveSeq();
            state_ = State::Lazy;
            sim.noteLazyArmed(readyAt_);
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
            sim.noteLazySettled();
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
