/**
 * @file
 * Unit and property tests for the two-tier event queue (near-future
 * calendar buckets + far-future binary heap). Ordering must never
 * depend on which tier holds an event.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using namespace mediaworm::sim;

class RecordingEvent final : public Event
{
  public:
    explicit RecordingEvent(std::vector<int>* log = nullptr, int id = 0)
        : log_(log), id_(id)
    {
    }

    void
    fire() override
    {
        if (log_)
            log_->push_back(id_);
    }

  private:
    std::vector<int>* log_;
    int id_;
};

TEST(EventQueue, StartsEmpty)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.nextTime(), kTickNever);
}

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue queue;
    RecordingEvent a;
    RecordingEvent b;
    RecordingEvent c;
    queue.schedule(a, 30);
    queue.schedule(b, 10);
    queue.schedule(c, 20);

    EXPECT_EQ(queue.nextTime(), 10);
    EXPECT_EQ(&queue.pop(), &b);
    EXPECT_EQ(&queue.pop(), &c);
    EXPECT_EQ(&queue.pop(), &a);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue queue;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    for (int i = 0; i < 32; ++i) {
        events.push_back(std::make_unique<RecordingEvent>());
        queue.schedule(*events.back(), 100);
    }
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(&queue.pop(), events[static_cast<std::size_t>(i)].get())
            << "tie-break broke FIFO order at " << i;
}

TEST(EventQueue, ScheduledFlagTracksMembership)
{
    EventQueue queue;
    RecordingEvent event;
    EXPECT_FALSE(event.scheduled());
    queue.schedule(event, 5);
    EXPECT_TRUE(event.scheduled());
    EXPECT_EQ(event.when(), 5);
    queue.pop();
    EXPECT_FALSE(event.scheduled());
}

TEST(EventQueue, DescheduleRemovesArbitraryElement)
{
    EventQueue queue;
    RecordingEvent a;
    RecordingEvent b;
    RecordingEvent c;
    queue.schedule(a, 1);
    queue.schedule(b, 2);
    queue.schedule(c, 3);

    queue.deschedule(b);
    EXPECT_FALSE(b.scheduled());
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(&queue.pop(), &a);
    EXPECT_EQ(&queue.pop(), &c);
}

TEST(EventQueue, DescheduleHeadUpdatesNextTime)
{
    EventQueue queue;
    RecordingEvent a;
    RecordingEvent b;
    queue.schedule(a, 1);
    queue.schedule(b, 9);
    queue.deschedule(a);
    EXPECT_EQ(queue.nextTime(), 9);
    queue.deschedule(b); // events must not be destroyed scheduled
}

TEST(EventQueue, DescheduleUnscheduledIsNoop)
{
    EventQueue queue;
    RecordingEvent a;
    queue.deschedule(a); // must not crash
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RescheduleMovesBothDirections)
{
    EventQueue queue;
    RecordingEvent a;
    RecordingEvent b;
    queue.schedule(a, 10);
    queue.schedule(b, 20);

    queue.reschedule(b, 5); // move earlier
    EXPECT_EQ(&queue.pop(), &b);

    queue.schedule(b, 15);
    queue.reschedule(a, 30); // move later
    EXPECT_EQ(&queue.pop(), &b);
    EXPECT_EQ(&queue.pop(), &a);
}

TEST(EventQueue, RescheduleUnscheduledSchedules)
{
    EventQueue queue;
    RecordingEvent a;
    queue.reschedule(a, 7);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 7);
    queue.deschedule(a); // events must not be destroyed scheduled
}

// --- two-tier specifics -----------------------------------------------------

/** One tick past the near-tier horizon as seen from an empty queue
 *  anchored at tick 0. */
constexpr Tick kBeyondHorizon =
    static_cast<Tick>(EventQueue::kNumBuckets)
    << EventQueue::kBucketShift;

TEST(EventQueueTiers, FarFutureGoesToHeapAndStillOrders)
{
    EventQueue queue;
    RecordingEvent anchor;
    RecordingEvent far1;
    RecordingEvent far2;
    RecordingEvent near1;

    queue.schedule(anchor, 0); // anchors the near window at bucket 0
    queue.schedule(far1, kBeyondHorizon + 500);
    queue.schedule(far2, kBeyondHorizon + 100);
    queue.schedule(near1, 42);

    EXPECT_EQ(queue.nearSize(), 2u);
    EXPECT_EQ(queue.farSize(), 2u);
    EXPECT_EQ(queue.size(), 4u);
    EXPECT_EQ(queue.nextTime(), 0);

    EXPECT_EQ(&queue.pop(), &anchor);
    EXPECT_EQ(&queue.pop(), &near1);
    EXPECT_EQ(&queue.pop(), &far2);
    EXPECT_EQ(&queue.pop(), &far1);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTiers, EmptyNearTierReanchorsItsWindow)
{
    EventQueue queue;
    RecordingEvent a;
    RecordingEvent b;

    queue.schedule(a, 0);
    EXPECT_EQ(&queue.pop(), &a);

    // With the near tier drained, a time far beyond the old window
    // must land in the near tier again, not leak to the heap.
    queue.schedule(b, 100 * kBeyondHorizon);
    EXPECT_EQ(queue.nearSize(), 1u);
    EXPECT_EQ(queue.farSize(), 0u);
    EXPECT_EQ(&queue.pop(), &b);
}

TEST(EventQueueTiers, SameTickFifoAcrossTiers)
{
    EventQueue queue;
    RecordingEvent anchor;
    RecordingEvent first;
    RecordingEvent second;
    const Tick when = kBeyondHorizon + 7;

    // 'first' is scheduled while the near window sits at bucket 0, so
    // it overflows to the heap; 'second' lands in the near tier after
    // the window re-anchors. Same tick, different tiers: FIFO by
    // scheduling order must still hold.
    queue.schedule(anchor, 0);
    queue.schedule(first, when);
    EXPECT_EQ(queue.farSize(), 1u);
    EXPECT_EQ(&queue.pop(), &anchor);
    queue.schedule(second, when);
    EXPECT_EQ(queue.nearSize(), 1u);
    EXPECT_EQ(queue.farSize(), 1u);

    EXPECT_EQ(&queue.pop(), &first);
    EXPECT_EQ(&queue.pop(), &second);
}

TEST(EventQueueTiers, DescheduleWorksInBothTiers)
{
    EventQueue queue;
    RecordingEvent near_mid;
    RecordingEvent near_head;
    RecordingEvent near_tail;
    RecordingEvent far_mid;
    RecordingEvent far_keep;

    queue.schedule(near_head, 10);
    queue.schedule(near_mid, 20);
    queue.schedule(near_tail, 30);
    queue.schedule(far_mid, kBeyondHorizon + 10);
    queue.schedule(far_keep, kBeyondHorizon + 20);

    queue.deschedule(near_mid); // middle of a bucket chain
    queue.deschedule(far_mid);  // heap interior
    EXPECT_FALSE(near_mid.scheduled());
    EXPECT_FALSE(far_mid.scheduled());
    EXPECT_EQ(queue.size(), 3u);

    EXPECT_EQ(&queue.pop(), &near_head);
    EXPECT_EQ(&queue.pop(), &near_tail);
    EXPECT_EQ(&queue.pop(), &far_keep);
}

TEST(EventQueueTiers, RescheduleCrossesTiers)
{
    EventQueue queue;
    RecordingEvent anchor;
    RecordingEvent mover;

    queue.schedule(anchor, 0);
    queue.schedule(mover, 5); // near
    EXPECT_EQ(queue.nearSize(), 2u);

    queue.reschedule(mover, kBeyondHorizon + 5); // near -> far
    EXPECT_EQ(queue.nearSize(), 1u);
    EXPECT_EQ(queue.farSize(), 1u);

    queue.reschedule(mover, 5); // far -> near
    EXPECT_EQ(queue.nearSize(), 2u);
    EXPECT_EQ(queue.farSize(), 0u);

    EXPECT_EQ(&queue.pop(), &anchor);
    EXPECT_EQ(&queue.pop(), &mover);
}

TEST(EventQueueTiers, BoundedInsertScanOverflowsToHeap)
{
    // Deep descending insert into one bucket. Ahead of the cursor the
    // bucket absorbs every insert (an overflowing walk becomes an
    // unsorted tail append, sorted once when the cursor arrives); in
    // the cursor bucket, which must stay sorted, the inserts past the
    // scan bound spill to the heap. Either way the global order must
    // be unaffected.
    constexpr int kCount = 64;
    const Tick ahead = 5 * (Tick{1} << EventQueue::kBucketShift);
    for (const Tick base : {ahead, Tick{0}}) {
        EventQueue queue;
        RecordingEvent anchor;
        queue.schedule(anchor, 0); // cursor bucket 0
        std::vector<std::unique_ptr<RecordingEvent>> events;
        for (int i = 0; i < kCount; ++i) {
            events.push_back(std::make_unique<RecordingEvent>());
            queue.schedule(*events.back(), base + kCount - i);
        }
        const EventQueue::TierCounters& tiers = queue.tierCounters();
        if (base == ahead) {
            EXPECT_EQ(queue.farSize(), 0u);
            EXPECT_EQ(tiers.farCursorOverflow, 0u);
        } else {
            EXPECT_GT(queue.farSize(), 0u);
            EXPECT_EQ(tiers.farCursorOverflow, queue.farSize());
        }
        EXPECT_EQ(queue.size(), static_cast<std::size_t>(kCount + 1));

        EXPECT_EQ(&queue.pop(), &anchor);
        Tick last = -1;
        for (int i = 0; i < kCount; ++i) {
            Event& popped = queue.pop();
            EXPECT_GT(popped.when(), last);
            last = popped.when();
        }
        EXPECT_TRUE(queue.empty());
        EXPECT_EQ(tiers.bucketSorts, base == ahead ? 1u : 0u);
    }
}

TEST(EventQueueTiers, ClearResetsBothTiers)
{
    EventQueue queue;
    RecordingEvent a;
    RecordingEvent b;
    queue.schedule(a, 1);
    queue.schedule(b, kBeyondHorizon + 1);
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(a.scheduled());
    EXPECT_FALSE(b.scheduled());
    // The queue must be fully reusable after clear().
    queue.schedule(a, 3);
    queue.schedule(b, 2);
    EXPECT_EQ(&queue.pop(), &b);
    EXPECT_EQ(&queue.pop(), &a);
}

/** Bucket width in ticks, for placing events in chosen buckets. */
constexpr Tick kBucketTicks = Tick{1} << EventQueue::kBucketShift;

TEST(EventQueueTiers, SameTickBurstAheadOfCursorStaysNear)
{
    // The torus's busiest pattern: many routers hand link deliveries
    // (canonical keys, in no particular order) and counter-keyed
    // wakeups to one future tick. However deep and disordered the
    // burst, a bucket ahead of the cursor keeps all of it in the near
    // tier and serves it in exact key order once the cursor arrives.
    constexpr int kCanonical = 512;
    constexpr int kCounter = 64;
    EventQueue queue;
    RecordingEvent anchor;
    queue.schedule(anchor, 0); // cursor bucket 0

    std::vector<int> keys(kCanonical);
    for (int i = 0; i < kCanonical; ++i)
        keys[static_cast<std::size_t>(i)] = i;
    Rng rng(0x5eed);
    for (std::size_t i = keys.size() - 1; i > 0; --i)
        std::swap(keys[i], keys[rng.uniformInt(i + 1)]);

    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    const Tick when = 7 * kBucketTicks + 3;
    int counter_id = kCanonical;
    for (int i = 0; i < kCanonical; ++i) {
        const int key = keys[static_cast<std::size_t>(i)];
        events.push_back(std::make_unique<RecordingEvent>(&log, key));
        events.back()->setCanonicalSeq(static_cast<std::uint64_t>(key));
        queue.schedule(*events.back(), when);
        if (i % (kCanonical / kCounter) == 0) {
            events.push_back(
                std::make_unique<RecordingEvent>(&log, counter_id++));
            queue.schedule(*events.back(), when);
        }
    }
    EXPECT_EQ(queue.farSize(), 0u);
    EXPECT_EQ(queue.nearSize(),
              static_cast<std::size_t>(kCanonical + kCounter + 1));

    EXPECT_EQ(&queue.pop(), &anchor);
    while (!queue.empty())
        queue.pop().fire();
    std::vector<int> expected(kCanonical + kCounter);
    for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = static_cast<int>(i);
    EXPECT_EQ(log, expected) << "canonical keys first, then FIFO";
    EXPECT_EQ(queue.tierCounters().bucketSorts, 1u);
    EXPECT_EQ(queue.tierCounters().eventsSorted,
              static_cast<std::uint64_t>(kCanonical + kCounter));
}

TEST(EventQueueTiers, CachedFrontBesideUnsortedBucketPopsInOrder)
{
    // A cached front and an unsorted bucket coexist: the front (here
    // cached by noteScheduled() when a canonical key undercuts it)
    // sits in the sorted cursor bucket, the burst ahead of it waits
    // unsorted. Popping the front repairs the cache from its sorted
    // successor; the burst is sorted only when the cursor reaches it,
    // including an earliest-of-bucket event appended after the
    // bucket went unsorted.
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent anchor(&log, 1);
    queue.schedule(anchor, 0);
    ASSERT_EQ(queue.peekEarliest(), &anchor); // caches the front

    constexpr int kBurst = 40;
    std::vector<std::unique_ptr<RecordingEvent>> burst;
    for (int i = 0; i < kBurst; ++i) { // descending: goes unsorted
        burst.push_back(
            std::make_unique<RecordingEvent>(&log, 100 + kBurst - i));
        queue.schedule(*burst.back(), 3 * kBucketTicks + kBurst - i);
    }
    RecordingEvent earliest_of_bucket(&log, 100);
    queue.schedule(earliest_of_bucket, 3 * kBucketTicks);
    RecordingEvent canon(&log, 0);
    canon.setCanonicalSeq(9);
    queue.schedule(canon, 0); // undercuts the cached front
    ASSERT_EQ(queue.peekEarliest(), &canon);
    EXPECT_EQ(queue.farSize(), 0u);

    EXPECT_EQ(&queue.pop(), &canon);
    EXPECT_EQ(queue.peekEarliest(), &anchor);
    while (!queue.empty())
        queue.pop().fire();
    std::vector<int> expected{1}; // the anchor; canon was not fired
    for (int id = 100; id <= 100 + kBurst; ++id)
        expected.push_back(id);
    EXPECT_EQ(log, expected);
    EXPECT_EQ(queue.tierCounters().bucketSorts, 1u);
}

TEST(EventQueueTiers, DescheduleFromUnsortedBucket)
{
    EventQueue queue;
    RecordingEvent anchor;
    queue.schedule(anchor, 0);

    // A descending burst: the first kMaxInsertScan + 1 events are
    // walked into place, the rest appended out of order. The unsorted
    // bucket gives up its list head (the last in-place insert), its
    // tail (the latest append, its earliest event) and a middle event;
    // the rest still come out in time order.
    constexpr int kBurst = 40;
    constexpr std::size_t kListHead = EventQueue::kMaxInsertScan;
    std::vector<std::unique_ptr<RecordingEvent>> burst;
    for (int i = 0; i < kBurst; ++i) {
        burst.push_back(std::make_unique<RecordingEvent>());
        queue.schedule(*burst.back(), 3 * kBucketTicks + kBurst - i);
    }
    queue.deschedule(*burst[kListHead]);
    queue.deschedule(*burst.back());
    queue.deschedule(*burst.front());
    EXPECT_EQ(queue.size(), static_cast<std::size_t>(kBurst - 3 + 1));
    EXPECT_EQ(&queue.pop(), &anchor);
    Tick last = -1;
    while (!queue.empty()) {
        Event& popped = queue.pop();
        EXPECT_GT(popped.when(), last);
        last = popped.when();
    }

    // Emptied entirely by deschedules, an unsorted bucket must drop
    // its mark: when the tier next re-anchors its cursor onto that
    // bucket, the cursor bucket has to be sorted again, so deep
    // out-of-order inserts keep the bounded walk and spill.
    const Tick reused = 9 * kBucketTicks;
    RecordingEvent keep;
    queue.schedule(keep, reused - kBucketTicks); // cursor: bucket 8
    for (int i = 0; i < kBurst; ++i)
        queue.schedule(*burst[static_cast<std::size_t>(i)],
                       reused + 100 + kBurst - i);
    for (auto& event : burst)
        queue.deschedule(*event);
    EXPECT_EQ(&queue.pop(), &keep); // drains the near tier
    ASSERT_TRUE(queue.empty());

    queue.schedule(anchor, reused); // re-anchors onto bucket 9
    for (int i = 0; i < kBurst; ++i)
        queue.schedule(*burst[static_cast<std::size_t>(i)],
                       reused + kBurst - i);
    EXPECT_GT(queue.farSize(), 0u) << "cursor bucket left unsorted";
    EXPECT_EQ(queue.tierCounters().farCursorOverflow, queue.farSize());
    EXPECT_EQ(&queue.pop(), &anchor);
    last = -1;
    while (!queue.empty()) {
        Event& popped = queue.pop();
        EXPECT_GT(popped.when(), last);
        last = popped.when();
    }
}

TEST(EventQueueTiers, CachedFrontInReanchoredBucketRepairsInOrder)
{
    // noteScheduled() caches a new front without visiting nearFront(),
    // so it never sorts the front's bucket. Here the near tier
    // re-anchors onto a slot whose bucket went unsorted and was then
    // emptied by deschedules; had it kept its mark, the inserts below
    // would be appended out of order and popping the cached front
    // would repair the cache from the wrong list successor.
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent anchor;
    RecordingEvent far(&log, 4);
    queue.schedule(anchor, 0);
    queue.schedule(far, 2 * kBeyondHorizon);
    ASSERT_EQ(queue.farSize(), 1u);
    const Tick reused = 9 * kBucketTicks;
    constexpr int kBurst = 40; // descending: the bucket goes unsorted
    std::vector<std::unique_ptr<RecordingEvent>> burst;
    for (int i = 0; i < kBurst; ++i) {
        burst.push_back(std::make_unique<RecordingEvent>());
        queue.schedule(*burst.back(), reused + 100 + kBurst - i);
    }
    for (auto& event : burst)
        queue.deschedule(*event);
    EXPECT_EQ(&queue.pop(), &anchor); // near tier now empty
    ASSERT_EQ(queue.peekEarliest(), &far); // cached front in the heap

    RecordingEvent second(&log, 2);
    RecordingEvent first(&log, 1);
    RecordingEvent third(&log, 3);
    queue.schedule(second, reused + 10); // re-anchors onto bucket 9
    queue.schedule(first, reused + 1);   // cached as the new front
    queue.schedule(third, reused + 20);
    while (!queue.empty())
        queue.pop().fire();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

// --- canonical tie-break keys ----------------------------------------------

TEST(EventQueueCanonical, CanonicalKeysPrecedeCounterKeysAtSameTick)
{
    // Canonical keys live below kFirstDynamicSeq, so at one tick every
    // canonical-key event must fire before every counter-keyed event,
    // and canonical events must fire in key order - not in schedule
    // order. This is the property the sharded executor relies on to
    // merge cross-shard link events deterministically (sim/pdes.hh).
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent plain_a(&log, 100);
    RecordingEvent plain_b(&log, 101);
    RecordingEvent canon_hi(&log, 2);
    RecordingEvent canon_lo(&log, 0);
    RecordingEvent canon_mid(&log, 1);
    canon_hi.setCanonicalSeq(2);
    canon_lo.setCanonicalSeq(0);
    canon_mid.setCanonicalSeq(1);

    // Deliberately adversarial schedule order: counter-keyed events
    // first, canonical keys descending.
    const Tick when = 64;
    queue.schedule(plain_a, when);
    queue.schedule(plain_b, when);
    queue.schedule(canon_hi, when);
    queue.schedule(canon_lo, when);
    queue.schedule(canon_mid, when);

    while (!queue.empty())
        queue.pop().fire();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 100, 101}));
}

TEST(EventQueueCanonical, KeySurvivesPopAndReschedule)
{
    // setCanonicalSeq() pins the key forever: after a pop or a
    // reschedule the event must still sort by its canonical key, not
    // by a freshly drawn counter value.
    EventQueue queue;
    RecordingEvent canon;
    RecordingEvent plain;
    canon.setCanonicalSeq(5);

    queue.schedule(canon, 10);
    EXPECT_EQ(&queue.pop(), &canon);
    EXPECT_TRUE(canon.hasCanonicalSeq());

    // Second round: the plain event is scheduled first, so a counter
    // key would put it ahead; the canonical key must still win.
    queue.schedule(plain, 20);
    queue.schedule(canon, 20);
    EXPECT_EQ(&queue.pop(), &canon);
    EXPECT_EQ(&queue.pop(), &plain);

    // And across reschedule() onto an occupied tick.
    queue.schedule(plain, 30);
    queue.schedule(canon, 40);
    queue.reschedule(canon, 30);
    EXPECT_EQ(&queue.pop(), &canon);
    EXPECT_EQ(&queue.pop(), &plain);
}

TEST(EventQueueCanonical, CanonicalOrderHoldsAcrossTiers)
{
    // A counter-keyed event that overflowed to the far heap and a
    // canonical-key event in the near ring share a tick; tier
    // placement must not override the canonical-first order.
    EventQueue queue;
    RecordingEvent anchor;
    RecordingEvent plain;
    RecordingEvent canon;
    canon.setCanonicalSeq(3);
    const Tick when = kBeyondHorizon + 11;

    queue.schedule(anchor, 0);
    queue.schedule(plain, when); // beyond the window: far tier
    EXPECT_EQ(queue.farSize(), 1u);
    EXPECT_EQ(&queue.pop(), &anchor);
    queue.schedule(canon, when); // window re-anchored: near tier
    EXPECT_EQ(queue.nearSize(), 1u);

    EXPECT_EQ(&queue.pop(), &canon);
    EXPECT_EQ(&queue.pop(), &plain);
}

TEST(EventQueueCanonical, CanonicalInsertStaysNearAgainstDeepSameTickBatch)
{
    // A canonical-key event belongs ahead of every same-tick
    // counter-keyed event, so its insert walks from the bucket head
    // and terminates immediately - it must never exhaust the bounded
    // scan against a deep same-tick batch and bounce to the far
    // heap. (Link flit/credit events are canonical-keyed; before the
    // head-first walk they degraded to heap traffic exactly on the
    // busiest ticks.) This holds in the cursor bucket, which keeps
    // the bounded walk; a bucket ahead of the cursor never spills at
    // all (EventQueueTiers.SameTickBurstAheadOfCursorStaysNear).
    EventQueue queue;
    std::vector<std::unique_ptr<RecordingEvent>> batch;
    const Tick when = 64;
    for (int i = 0; i < 48; ++i) {
        batch.push_back(std::make_unique<RecordingEvent>());
        queue.schedule(*batch.back(), when);
    }
    ASSERT_EQ(queue.farSize(), 0u);

    std::vector<int> log;
    RecordingEvent canon_b(&log, 1);
    RecordingEvent canon_a(&log, 0);
    canon_b.setCanonicalSeq(11);
    canon_a.setCanonicalSeq(10);
    queue.schedule(canon_b, when);
    queue.schedule(canon_a, when); // head walk passes one canonical
    EXPECT_EQ(queue.farSize(), 0u)
        << "canonical insert exhausted the bounded scan";
    EXPECT_EQ(queue.tierCounters().farCursorOverflow, 0u);
    EXPECT_EQ(queue.tierCounters().bucketSorts, 0u)
        << "in-order inserts must not mark the bucket unsorted";

    EXPECT_EQ(&queue.pop(), &canon_a);
    EXPECT_EQ(&queue.pop(), &canon_b);
    for (int i = 0; i < 48; ++i)
        EXPECT_EQ(&queue.pop(), batch[static_cast<std::size_t>(i)].get());
}

// --- shard-horizon windows --------------------------------------------------

/**
 * The sharded executor advances each shard with Simulator::run(T +
 * W - 1): events exactly on the window edge belong to the window,
 * events one past it must wait for the next epoch. A lookahead
 * off-by-one here silently reorders cross-shard traffic, so the edge
 * semantics are pinned down explicitly.
 */
TEST(EventQueueHorizon, EventOnTheWindowEdgeFiresInItsWindow)
{
    Simulator sim;
    std::vector<int> log;
    RecordingEvent before_edge(&log, 0);
    RecordingEvent on_edge(&log, 1);
    RecordingEvent past_edge(&log, 2);
    const Tick window_end = 160'000 - 1; // one link delay of lookahead

    sim.schedule(before_edge, window_end - 1);
    sim.schedule(on_edge, window_end);
    sim.schedule(past_edge, window_end + 1);

    EXPECT_EQ(sim.run(window_end), 2u);
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
    EXPECT_TRUE(past_edge.scheduled());
    EXPECT_EQ(sim.now(), window_end);

    EXPECT_EQ(sim.run(2 * window_end), 1u);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueHorizon, BoundedWindowsDrainAcrossTierBoundaries)
{
    // Drain a schedule that spans both tiers in fixed-width windows,
    // the way PdesExecutor epochs do. Every event must fire inside
    // the first window that covers it - no loss, no reordering, no
    // leakage past a window edge - even when the window boundary cuts
    // through the near/far handover.
    Simulator sim;
    struct Fired final : Event
    {
        void
        fire() override
        {
            *fired_at = owner->now();
        }
        Simulator* owner = nullptr;
        Tick* fired_at = nullptr;
    };

    constexpr int kCount = 48;
    std::vector<Fired> events(kCount);
    std::vector<Tick> fired_at(kCount, kTickNever);
    std::vector<Tick> when(kCount);
    Rng rng(0xcafe);
    for (int i = 0; i < kCount; ++i) {
        events[static_cast<std::size_t>(i)].owner = &sim;
        events[static_cast<std::size_t>(i)].fired_at =
            &fired_at[static_cast<std::size_t>(i)];
        // Bimodal spread: half inside the initial near window, half
        // far beyond it, so windowed draining forces tier crossings.
        Tick t = static_cast<Tick>(rng.uniformInt(5000));
        if (i % 2 == 0)
            t += 2 * kBeyondHorizon;
        when[static_cast<std::size_t>(i)] = t;
        sim.schedule(events[static_cast<std::size_t>(i)], t);
    }

    const Tick horizon = 3 * kBeyondHorizon;
    constexpr Tick kWindow = 100'000;
    std::uint64_t fired = 0;
    for (Tick end = kWindow - 1;
         fired < static_cast<std::uint64_t>(kCount); end += kWindow) {
        fired += sim.run(end);
        for (int i = 0; i < kCount; ++i) {
            const std::size_t n = static_cast<std::size_t>(i);
            if (when[n] <= end)
                EXPECT_EQ(fired_at[n], when[n])
                    << "event " << i << " missed window ending " << end;
            else
                EXPECT_EQ(fired_at[n], kTickNever)
                    << "event " << i << " leaked past window " << end;
        }
        ASSERT_LT(end, horizon) << "drain did not terminate";
    }
    EXPECT_TRUE(sim.queue().empty());
}

/**
 * Reference-model harness for the property tests: random
 * interleavings of counter-keyed schedule, canonical-keyed schedule,
 * reserveSeq() + scheduleReserved(), deschedule and pop, checked
 * against a std::map keyed by the (when, seq) total order. A quarter
 * of the events carry canonical keys (descending against their index,
 * so schedule order and key order disagree); reserved seqs are
 * redeemed in random order, long after later seqs were handed out.
 * Those are the keys that arrive out of order. @p next_time draws a
 * firing time given the latest popped time.
 */
template <class NextTime>
void
checkAgainstReferenceModel(Rng& rng, int rounds, int num_events,
                           int ops, NextTime next_time)
{
    for (int round = 0; round < rounds; ++round) {
        EventQueue queue;
        std::vector<std::unique_ptr<RecordingEvent>> events;
        const int num_canonical = num_events / 4;
        for (int i = 0; i < num_events; ++i) {
            events.push_back(std::make_unique<RecordingEvent>());
            if (i < num_canonical)
                events.back()->setCanonicalSeq(
                    static_cast<std::uint64_t>(7 * (num_events - i)));
        }

        // Reference: (time, seq) -> index, mirroring queue content.
        std::map<std::pair<Tick, std::uint64_t>, int> reference;
        std::vector<std::uint64_t> seq_of(
            static_cast<std::size_t>(num_events), 0);
        std::vector<std::uint64_t> reserved;
        std::uint64_t next_seq = EventQueue::kFirstDynamicSeq;
        Tick low = 0;

        const auto pop_and_check = [&] {
            Event& popped = queue.pop();
            ASSERT_FALSE(reference.empty());
            const auto expected = reference.begin();
            EXPECT_EQ(&popped,
                      events[static_cast<std::size_t>(expected->second)]
                          .get());
            // Simulated time marches forward: generators that follow
            // `low` never schedule before what was already served.
            low = std::max(low, popped.when());
            reference.erase(expected);
        };

        for (int op = 0; op < ops; ++op) {
            const int i = static_cast<int>(
                rng.uniformInt(static_cast<std::uint64_t>(num_events)));
            const auto n = static_cast<std::size_t>(i);
            auto& event = *events[n];
            const int action = static_cast<int>(rng.uniformInt(5));
            if (action == 0 && !event.scheduled()) {
                const Tick when = next_time(rng, low);
                queue.schedule(event, when);
                seq_of[n] =
                    event.hasCanonicalSeq() ? event.seq() : next_seq++;
                reference[{when, seq_of[n]}] = i;
            } else if (action == 1 && event.scheduled()) {
                queue.deschedule(event);
                reference.erase({event.when(), seq_of[n]});
            } else if (action == 2 && !queue.empty()) {
                pop_and_check();
            } else if (action == 3) {
                reserved.push_back(queue.reserveSeq());
                ASSERT_EQ(reserved.back(), next_seq++);
            } else if (action == 4 && !reserved.empty()
                       && !event.scheduled()
                       && !event.hasCanonicalSeq()) {
                const std::size_t pick =
                    rng.uniformInt(reserved.size());
                const std::uint64_t seq = reserved[pick];
                reserved[pick] = reserved.back();
                reserved.pop_back();
                const Tick when = next_time(rng, low);
                queue.scheduleReserved(event, when, seq);
                seq_of[n] = seq;
                reference[{when, seq}] = i;
            }
            ASSERT_EQ(queue.size(), reference.size());
            if (!queue.empty()) {
                ASSERT_EQ(queue.nextTime(),
                          reference.begin()->first.first);
            }
        }
        while (!queue.empty())
            pop_and_check();
        EXPECT_TRUE(reference.empty());
    }
}

/**
 * Property: against the reference model, random interleavings
 * produce the same service order. Times cluster in four adjacent
 * buckets, so same-bucket bursts form ahead of the cursor (and go
 * unsorted) while later inserts land behind it.
 */
TEST(EventQueueProperty, MatchesReferenceModelUnderRandomOps)
{
    Rng rng(0xfeed);
    checkAgainstReferenceModel(rng, 20, 128, 1000, [](Rng& r, Tick) {
        return static_cast<Tick>(r.uniformInt(50))
            + static_cast<Tick>(r.uniformInt(4)) * kBucketTicks;
    });
}

/**
 * Property: as above, but with time moving forward and a bimodal
 * distribution (near the window / far beyond it) so random
 * interleavings constantly cross the tier boundary and exercise the
 * heap fallback.
 */
TEST(EventQueueProperty, MatchesReferenceModelAcrossTiers)
{
    Rng rng(0xbead);
    checkAgainstReferenceModel(rng, 10, 96, 1500, [](Rng& r, Tick low) {
        Tick when = low + static_cast<Tick>(r.uniformInt(5000));
        if (r.uniformInt(4) == 0)
            when += 3 * kBeyondHorizon; // far beyond any window
        return when;
    });
}

} // namespace
