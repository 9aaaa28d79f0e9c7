/**
 * @file
 * Two-tier pending-event queue.
 *
 * Near tier: a calendar-style ring of time buckets covering a few
 * dozen router cycles ahead of the cursor. Almost every event a
 * simulation schedules (pipeline stages, multiplexer service slots,
 * link deliveries) lands 1-few cycles in the future, which this tier
 * absorbs with O(1) schedule, deschedule and pop.
 *
 * Far tier: an indexed binary min-heap with inline (when, seq) keys,
 * holding everything outside the near window (frame interarrivals
 * tens of milliseconds out, warmup/drain timers) plus rare awkward
 * inserts the near tier declines. O(log n) schedule, cancel and
 * reschedule.
 *
 * Tier placement is purely a performance decision: pop() compares the
 * earliest candidate of each tier under the same total (when, seq)
 * order the single heap used, so service order - including FIFO
 * delivery of same-tick events, even across tiers - is bit-identical
 * to the previous implementation regardless of which tier an event
 * sat in.
 */

#ifndef MEDIAWORM_SIM_EVENT_QUEUE_HH
#define MEDIAWORM_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::sim {

/** Priority queue of events ordered by (time, schedule order). */
class EventQueue
{
  public:
    /**
     * Near-tier bucket width as a power of two: 2^12 ticks = 4.096 ns.
     * Comfortably finer than any router cycle of interest (an 80 ns
     * cycle spans ~20 buckets), so a bucket rarely holds events of
     * more than one or two distinct ticks.
     */
    static constexpr int kBucketShift = 12;

    /**
     * Near-tier bucket count (power of two). Together with the width
     * this covers a ~4.2 us window - roughly 50 cycles of a 400 Mbps
     * link - ahead of the cursor. Widening the window to ~67 us
     * (4096 x 16.4 ns) so per-message source interarrivals skip the
     * far heap was measured and is a wash: the saved sift traffic is
     * repaid in cache footprint (the 64 KiB ring no longer fits L1).
     * The per-bucket sorted/unsorted state lives in a bitmap beside
     * the occupancy bitmap, so the 1024-bucket ring stays 16 KiB.
     */
    static constexpr std::size_t kNumBuckets = 1024;

    /**
     * Bound on the in-place insert walk inside one bucket. Ahead of
     * the cursor, an insert that would walk further is appended to
     * the bucket's tail and the bucket is marked unsorted (it is
     * sorted once, when the cursor reaches it). In the cursor bucket,
     * which must stay sorted, such an insert goes to the far heap -
     * the only ordering-driven spill left.
     */
    static constexpr int kMaxInsertScan = 16;

    /**
     * First tie-break value the per-queue monotone counter hands
     * out. Event::setCanonicalSeq() keys must stay below this, so
     * the (when, seq) total order makes every canonical-key event
     * precede every counter-keyed event at the same tick, in every
     * execution mode (see event.hh).
     */
    static constexpr std::uint64_t kFirstDynamicSeq = 1ULL << 32;

    /**
     * Tier accounting, outside every result hash: far-heap inserts by
     * cause, and sort-on-reach work. Only the spill and sort paths
     * count, so the near tier's hot path pays nothing.
     */
    struct TierCounters
    {
        std::uint64_t farBeyondWindow = 0;   ///< past the near window
        std::uint64_t farBehindCursor = 0;   ///< behind the cursor
        std::uint64_t farCursorOverflow = 0; ///< cursor-bucket walk
        std::uint64_t bucketSorts = 0;       ///< buckets sorted on reach
        std::uint64_t eventsSorted = 0;      ///< events those sorted
    };

    EventQueue();

    /**
     * Schedules @p event to fire at @p when.
     * The event must not already be scheduled.
     */
    [[gnu::always_inline]] void schedule(Event& event, Tick when);

    /**
     * Consumes and returns the next dynamic tie-break key, exactly as
     * one schedule() call would have. Pair with scheduleReserved():
     * a component that knows a wakeup would fire as a no-op can skip
     * the queue insert entirely yet keep the per-queue seq evolution
     * - and therefore every later event's (when, seq) key -
     * bit-identical to always-scheduling (see sim::LazyTick).
     */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Schedules @p event at @p when under the previously reserved
     * tie-break key @p seq, restoring exactly the service position a
     * schedule() call at reservation time would have produced. The
     * event must not be scheduled and must not carry a canonical key.
     */
    void scheduleReserved(Event& event, Tick when, std::uint64_t seq);

    /** Removes @p event from the queue; no-op if not scheduled. */
    void deschedule(Event& event);

    /**
     * Moves @p event to fire at @p when, scheduling it if needed.
     * The event keeps its FIFO position only relative to events
     * scheduled after this call.
     */
    void reschedule(Event& event, Tick when);

    /** True if no events are pending. */
    bool empty() const { return nearCount_ == 0 && heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return nearCount_ + heap_.size(); }

    /** Firing time of the earliest event; kTickNever if empty. */
    Tick nextTime();

    /**
     * Removes and returns the earliest event.
     * Must not be called on an empty queue.
     */
    [[gnu::always_inline]] Event& pop();

    /** Earliest event without removing it; nullptr if empty. */
    Event* peekEarliest() { return earliest(); }

    /**
     * Fused nextTime()+pop(): removes and returns the earliest event
     * if its time is <= @p until, else leaves the queue untouched and
     * returns nullptr. Saves one earliest-event search per fired
     * event over the peek-then-pop idiom.
     */
    [[gnu::always_inline]] Event* popIfAtOrBefore(Tick until);

    /**
     * Deschedules every pending event without firing it. Use before
     * tearing down a truncated simulation so events outlive the
     * queue cleanly.
     */
    void clear();

    /** Events currently held by the near-tier ring (observability). */
    std::size_t nearSize() const { return nearCount_; }

    /** Events currently held by the far-tier heap (observability). */
    std::size_t farSize() const { return heap_.size(); }

    /** Far-insert causes and sort work since construction. */
    const TierCounters& tierCounters() const { return counters_; }

  private:
    /** One near-tier bucket: an intrusive list, (when, seq)-sorted
     *  unless its unsorted_ bit is set (never the cursor's bucket). */
    struct Bucket
    {
        Event* head = nullptr;
        Event* tail = nullptr;
    };

    /** Far-heap slot. The inline key keeps sifts off the Events; its
     *  field names match Event's so before() compares either. */
    struct HeapEntry
    {
        Tick when_;
        std::uint64_t seq_;
        Event* event;
    };

    /** (when, seq) order over Events and HeapEntries alike. */
    template <class A, class B>
    static bool
    before(const A& a, const B& b)
    {
        if (a.when_ != b.when_)
            return a.when_ < b.when_;
        return a.seq_ < b.seq_;
    }

    /** New event inserted: keep the cached front exact. A cached
     *  front sits in the sorted cursor bucket or at or before it in
     *  the heap, so no event preceding it lands in an unsorted one. */
    void
    noteScheduled(Event& event)
    {
        if (front_ != nullptr && before(event, *front_))
            front_ = &event;
    }

    /** @p event leaves the queue: drop the cache if it was the front. */
    void
    noteRemoved(const Event& event)
    {
        if (front_ == &event)
            front_ = nullptr;
    }

    // Near tier. Force-inlined: these run two or three times per
    // fired event, and the compiler otherwise outlines them (they
    // are just over its inlining budget), costing a call per peek,
    // pop and schedule on the hottest loop in the tree.
    [[gnu::always_inline]] bool
    tryScheduleNear(Event& event, std::int64_t bucket_number);
    /** Sets @p prev to the event after which @p event keeps sorted
     *  @p bucket sorted (nullptr: the head); false if the walk would
     *  pass kMaxInsertScan events. */
    [[gnu::always_inline]] static bool
    sortedPosition(const Bucket& bucket, const Event& event, Event*& prev);
    [[gnu::always_inline]] void unlinkNear(Event& event);
    /** Earliest near-tier event; nullptr if the tier is empty.
     *  Advances the cursor past empty buckets and sorts the bucket
     *  it lands on if that one is marked unsorted. */
    [[gnu::always_inline]] Event* nearFront();
    /** Earliest event of either tier; nullptr if the queue is empty. */
    [[gnu::always_inline]] Event* earliest();
    /** Sorts the unsorted bucket in ring slot @p slot (cold path). */
    void sortBucket(std::size_t slot);

    // Far tier (indexed binary heap).
    void siftUp(std::size_t index);
    void siftDown(std::size_t index);
    void place(const HeapEntry& entry, std::size_t index);
    void scheduleFar(Event& event);
    void descheduleFar(Event& event);

    std::vector<Bucket> buckets_;
    /**
     * Absolute bucket number (when >> kBucketShift) the cursor sits
     * on; the ring slot is cursorBucket_ & (kNumBuckets - 1). Near
     * events always live in [cursorBucket_, cursorBucket_ +
     * kNumBuckets).
     */
    std::int64_t cursorBucket_ = 0;
    std::size_t nearCount_ = 0;
    /**
     * One bit per ring slot, set while the slot's bucket is
     * non-empty. nearFront() finds the next occupied bucket with a
     * count-trailing-zeros scan over these words instead of probing
     * buckets one by one - the difference matters when idle-tick
     * elision makes the clock jump many empty buckets at once.
     */
    std::array<std::uint64_t, kNumBuckets / 64> occupied_{};
    /** Set while a slot's bucket holds an out-of-order append;
     *  always a subset of occupied_. */
    std::array<std::uint64_t, kNumBuckets / 64> unsorted_{};
    /** sortBucket()'s reused (packed key, event) buffer. */
    std::vector<std::pair<std::uint64_t, Event*>> sortScratch_;

    std::vector<HeapEntry> heap_;
    std::uint64_t nextSeq_ = kFirstDynamicSeq;
    /**
     * Cached earliest event: non-null means it *is* the earliest
     * pending event; null means unknown (recomputed lazily by
     * earliest()). Inserts keep it exact via noteScheduled();
     * removals clear it via noteRemoved().
     */
    Event* front_ = nullptr;
    TierCounters counters_;
};

// --- inline hot path --------------------------------------------------------
//
// One of these runs for every event a simulation fires (often two or
// three); keeping them header-inline lets the run loop see through
// the bucket/bitmap bookkeeping instead of paying a call per peek,
// pop and schedule - measurably faster than the out-of-line versions
// on the end-to-end benchmark.

inline bool
EventQueue::tryScheduleNear(Event& event, std::int64_t bucket_number)
{
    // An empty near tier can re-anchor its window anywhere.
    if (nearCount_ == 0) {
        cursorBucket_ = bucket_number;
    } else if (bucket_number < cursorBucket_) {
        ++counters_.farBehindCursor;
        return false;
    } else if (bucket_number
               >= cursorBucket_ + static_cast<std::int64_t>(kNumBuckets)) {
        ++counters_.farBeyondWindow;
        return false;
    }

    constexpr std::size_t mask = kNumBuckets - 1;
    const std::size_t slot =
        static_cast<std::size_t>(bucket_number) & mask;
    const std::uint64_t bit = 1ULL << (slot & 63);
    Bucket& bucket = buckets_[slot];

    // The event goes after `prev` (nullptr: the head): a bounded walk
    // into a sorted bucket, else a tail append that marks a bucket
    // ahead of the cursor unsorted until the cursor reaches it. Only
    // the cursor bucket, which must stay sorted, still spills.
    Event* prev = bucket.tail;
    if ((unsorted_[slot >> 6] & bit) == 0
        && !sortedPosition(bucket, event, prev)) {
        if (bucket_number == cursorBucket_) {
            ++counters_.farCursorOverflow;
            return false;
        }
        prev = bucket.tail;
        unsorted_[slot >> 6] |= bit;
    }
    event.nearPrev_ = prev;
    event.nearNext_ = prev != nullptr ? prev->nearNext_ : bucket.head;
    if (prev != nullptr)
        prev->nearNext_ = &event;
    else
        bucket.head = &event;
    if (event.nearNext_ != nullptr)
        event.nearNext_->nearPrev_ = &event;
    else
        bucket.tail = &event;

    event.heapIndex_ = Event::kInNearTier;
    ++nearCount_;
    occupied_[slot >> 6] |= bit;
    return true;
}

inline bool
EventQueue::sortedPosition(const Bucket& bucket, const Event& event,
                           Event*& prev)
{
    // Entered from the end where the event's key lives. A
    // counter-keyed event carries the largest seq, so a tail-first
    // walk stops at the last event with when_ <= event.when_ -
    // usually immediately. A canonical-key event (seq below the
    // counter range) that does not belong at the tail precedes every
    // same-tick counter-keyed event, so it walks head-first instead
    // (stopping at the tail at the latest): past earlier ticks and
    // earlier canonical keys only, never through same-tick counter-keyed
    // events.
    int scanned = 0;
    if (event.canonicalSeq_ && bucket.tail != nullptr
        && before(event, *bucket.tail)) {
        Event* at = bucket.head;
        for (; before(*at, event); at = at->nearNext_) {
            if (++scanned > kMaxInsertScan)
                return false;
        }
        prev = at->nearPrev_;
    } else {
        Event* at = bucket.tail;
        for (; at != nullptr && before(event, *at); at = at->nearPrev_) {
            if (++scanned > kMaxInsertScan)
                return false;
        }
        prev = at;
    }
    return true;
}

inline void
EventQueue::unlinkNear(Event& event)
{
    constexpr std::size_t mask = kNumBuckets - 1;
    const std::size_t slot = static_cast<std::size_t>(
                                 event.when_ >> kBucketShift)
                             & mask;
    const std::uint64_t bit = 1ULL << (slot & 63);
    Bucket& bucket = buckets_[slot];
    Event* const succ = event.nearNext_;
    if (event.nearPrev_ != nullptr)
        event.nearPrev_->nearNext_ = succ;
    else
        bucket.head = succ;
    if (succ != nullptr)
        succ->nearPrev_ = event.nearPrev_;
    else
        bucket.tail = event.nearPrev_;
    event.nearPrev_ = nullptr;
    event.nearNext_ = nullptr;
    event.heapIndex_ = Event::kUnscheduled;
    --nearCount_;
    if (bucket.head == nullptr) {
        occupied_[slot >> 6] &= ~bit;
        unsorted_[slot >> 6] &= ~bit;
    }
    // O(1) front repair: when the removed event was the cached front
    // it was the global minimum, so its in-bucket successor - if any -
    // is the new near-tier minimum (every other near event sits after
    // it in this sorted cursor bucket, see noteScheduled(), or in a
    // later-time bucket). Compare against the far-tier top and cache
    // the winner, instead of dropping the cache and paying a full
    // bitmap rescan on the next peek. An empty successor means the
    // near minimum moved to a later bucket; fall back to the lazy
    // recompute.
    if (front_ == &event) {
        MW_DEBUG_ASSERT((unsorted_[slot >> 6] & bit) == 0);
        if (succ != nullptr) {
            front_ = (heap_.empty() || before(*succ, heap_.front()))
                         ? succ
                         : heap_.front().event;
        } else {
            front_ = nullptr;
        }
    }
}

inline Event*
EventQueue::nearFront()
{
    if (nearCount_ == 0)
        return nullptr;
    // All near events live within [cursorBucket_, cursorBucket_ +
    // kNumBuckets), so every set occupancy bit maps to exactly one
    // absolute bucket at or ahead of the cursor: scan forward (with
    // ring wrap) for the first set bit and jump the cursor straight
    // to it, instead of probing empty buckets one at a time.
    constexpr std::size_t mask = kNumBuckets - 1;
    constexpr std::size_t num_words = kNumBuckets / 64;
    const std::size_t slot =
        static_cast<std::size_t>(cursorBucket_) & mask;
    std::size_t word = slot >> 6;
    std::uint64_t bits = occupied_[word] & (~0ULL << (slot & 63));
    while (bits == 0) {
        word = (word + 1) & (num_words - 1);
        bits = occupied_[word];
    }
    const std::size_t found =
        (word << 6)
        + static_cast<std::size_t>(std::countr_zero(bits));
    cursorBucket_ += static_cast<std::int64_t>((found - slot) & mask);
    if ((unsorted_[word] & (1ULL << (found & 63))) != 0) [[unlikely]]
        sortBucket(found);
    return buckets_[found].head;
}

inline Event*
EventQueue::earliest()
{
    if (front_ != nullptr)
        return front_;
    Event* near = nearFront();
    Event* best;
    if (near == nullptr)
        best = heap_.empty() ? nullptr : heap_.front().event;
    else if (heap_.empty() || before(*near, heap_.front()))
        best = near;
    else
        best = heap_.front().event;
    front_ = best;
    return best;
}

inline void
EventQueue::schedule(Event& event, Tick when)
{
    MW_ASSERT(!event.scheduled());
    MW_ASSERT(when >= 0);
    event.when_ = when;
    if (event.canonicalSeq_)
        MW_ASSERT(event.seq_ < kFirstDynamicSeq);
    else
        event.seq_ = nextSeq_++;
    if (!tryScheduleNear(event, when >> kBucketShift))
        scheduleFar(event);
    noteScheduled(event);
}

inline Tick
EventQueue::nextTime()
{
    const Event* event = earliest();
    return event == nullptr ? kTickNever : event->when_;
}

inline Event&
EventQueue::pop()
{
    Event* event = earliest();
    MW_ASSERT(event != nullptr);
    if (event->heapIndex_ == Event::kInNearTier)
        unlinkNear(*event);
    else
        descheduleFar(*event);
    return *event;
}

inline Event*
EventQueue::popIfAtOrBefore(Tick until)
{
    Event* event = earliest();
    if (event == nullptr || event->when_ > until)
        return nullptr;
    if (event->heapIndex_ == Event::kInNearTier)
        unlinkNear(*event);
    else
        descheduleFar(*event);
    return event;
}

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_EVENT_QUEUE_HH
