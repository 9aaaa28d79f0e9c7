#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mediaworm::sim {

Event::~Event()
{
    MW_ASSERT(!scheduled());
}

EventQueue::EventQueue() : buckets_(kNumBuckets)
{
    sortScratch_.reserve(512);
}

// The near-tier hot path (tryScheduleNear, unlinkNear, nearFront,
// earliest, schedule, pop variants) lives inline in the header; this
// file keeps the bucket sort, the far heap and cold maintenance paths.

void
EventQueue::sortBucket(std::size_t slot)
{
    // Packed keys keep compares off the Events: the bucket shares
    // when_ >> kBucketShift, so when_'s low bits above seq_ order it
    // exactly. A seq_ too wide to pack (2^52 schedules on one queue)
    // switches every compare to the full (when, seq) order.
    constexpr int kSeqBits = 64 - kBucketShift;
    constexpr std::uint64_t kTickMask = (1ULL << kBucketShift) - 1;
    Bucket& bucket = buckets_[slot];
    bool packed = true;
    sortScratch_.clear();
    for (Event* event = bucket.head; event != nullptr;
         event = event->nearNext_) {
        packed = packed && (event->seq_ >> kSeqBits) == 0;
        sortScratch_.emplace_back(
            ((static_cast<std::uint64_t>(event->when_) & kTickMask)
             << kSeqBits)
                | event->seq_,
            event);
    }
    const auto less = [packed](const auto& a, const auto& b) {
        return packed ? a.first < b.first : before(*a.second, *b.second);
    };
    // Natural merge sort: most appends arrive in order, so merging
    // the few sorted runs costs O(n log runs), not O(n log n). The
    // buffer's second half is the merge target.
    const std::size_t n = sortScratch_.size();
    sortScratch_.resize(2 * n);
    auto* in = sortScratch_.data();
    auto* out = in + n;
    for (std::size_t runs = 2; runs > 1; std::swap(in, out)) {
        runs = 0;
        for (std::size_t begin = 0; begin < n; ++runs) {
            std::size_t mid = begin + 1;
            while (mid < n && !less(in[mid], in[mid - 1]))
                ++mid;
            std::size_t end = std::min(mid + 1, n);
            while (end < n && !less(in[end], in[end - 1]))
                ++end;
            std::merge(in + begin, in + mid, in + mid, in + end,
                       out + begin, less);
            begin = end;
        }
    }
    bucket.head = in[0].second;
    bucket.tail = in[n - 1].second;
    for (std::size_t i = 0; i < n; ++i) {
        in[i].second->nearPrev_ = i > 0 ? in[i - 1].second : nullptr;
        in[i].second->nearNext_ = i + 1 < n ? in[i + 1].second : nullptr;
    }
    unsorted_[slot >> 6] &= ~(1ULL << (slot & 63));
    ++counters_.bucketSorts;
    counters_.eventsSorted += n;
}

// --- far tier ---------------------------------------------------------------

void
EventQueue::place(const HeapEntry& entry, std::size_t index)
{
    heap_[index] = entry;
    entry.event->heapIndex_ = static_cast<std::int64_t>(index);
}

void
EventQueue::siftUp(std::size_t index)
{
    const HeapEntry entry = heap_[index];
    while (index > 0) {
        const std::size_t parent = (index - 1) / 2;
        if (!before(entry, heap_[parent]))
            break;
        place(heap_[parent], index);
        index = parent;
    }
    place(entry, index);
}

void
EventQueue::siftDown(std::size_t index)
{
    const HeapEntry entry = heap_[index];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * index + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], entry))
            break;
        place(heap_[child], index);
        index = child;
    }
    place(entry, index);
}

void
EventQueue::scheduleFar(Event& event)
{
    heap_.push_back({event.when_, event.seq_, &event});
    siftUp(heap_.size() - 1);
}

void
EventQueue::descheduleFar(Event& event)
{
    const auto index = static_cast<std::size_t>(event.heapIndex_);
    MW_ASSERT(index < heap_.size() && heap_[index].event == &event);
    event.heapIndex_ = Event::kUnscheduled;
    noteRemoved(event);
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (last.event == &event)
        return;
    place(last, index);
    // The replacement can need to move either direction.
    siftUp(index);
    siftDown(static_cast<std::size_t>(last.event->heapIndex_));
}

// --- public API -------------------------------------------------------------

void
EventQueue::scheduleReserved(Event& event, Tick when,
                             std::uint64_t seq)
{
    MW_ASSERT(!event.scheduled());
    MW_ASSERT(when >= 0);
    MW_ASSERT(!event.canonicalSeq_);
    MW_ASSERT(seq >= kFirstDynamicSeq && seq < nextSeq_);
    event.when_ = when;
    event.seq_ = seq;
    if (!tryScheduleNear(event, when >> kBucketShift))
        scheduleFar(event);
    noteScheduled(event);
}

void
EventQueue::deschedule(Event& event)
{
    if (!event.scheduled())
        return;
    if (event.heapIndex_ == Event::kInNearTier)
        unlinkNear(event);
    else
        descheduleFar(event);
}

void
EventQueue::reschedule(Event& event, Tick when)
{
    deschedule(event);
    schedule(event, when);
}

void
EventQueue::clear()
{
    for (Bucket& bucket : buckets_) {
        Event* event = bucket.head;
        while (event != nullptr) {
            Event* next = event->nearNext_;
            event->nearPrev_ = nullptr;
            event->nearNext_ = nullptr;
            event->heapIndex_ = Event::kUnscheduled;
            event = next;
        }
        bucket.head = nullptr;
        bucket.tail = nullptr;
    }
    occupied_.fill(0);
    unsorted_.fill(0);
    nearCount_ = 0;
    for (const HeapEntry& entry : heap_)
        entry.event->heapIndex_ = Event::kUnscheduled;
    heap_.clear();
    front_ = nullptr;
}

} // namespace mediaworm::sim
