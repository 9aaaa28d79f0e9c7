#include "sim/pdes.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "sim/logging.hh"

namespace mediaworm::sim {

namespace {

/** "No pending event" sentinel for the shared min-reduction
 *  (kTickNever is -1 and would win every min). */
constexpr Tick kNoEvent = std::numeric_limits<Tick>::max();

/** Barrier stage 1: phase-word polls with a CPU pause between them
 *  (at most a few microseconds) - covers the common case of shards
 *  finishing a window within microseconds of each other. */
constexpr int kSpinPolls = 64;
/** Barrier stage 2: how long a waiter keeps yielding its CPU before
 *  it parks on a futex. Yielding hands the core to a runnable shard
 *  when shards outnumber CPUs; parking bounds the CPU a waiter burns
 *  when a peer is descheduled or the window is long. */
constexpr std::chrono::microseconds kYieldWindow{200};

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

void
atomicMinTick(std::atomic<Tick>& slot, Tick value)
{
    Tick current = slot.load(std::memory_order_relaxed);
    while (value < current
           && !slot.compare_exchange_weak(current, value,
                                          std::memory_order_relaxed)) {
    }
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

EpochBarrier::EpochBarrier(int parties) : parties_(parties)
{
    MW_ASSERT(parties_ >= 1);
}

void
EpochBarrier::arriveAndWait()
{
    // Only this phase's last arrival can move the phase word, and
    // that cannot happen before our own arrival below.
    const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel)
        == parties_ - 1) {
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        phase_.notify_all();
        return;
    }

    for (int i = 0; i < kSpinPolls; ++i) {
        if (phase_.load(std::memory_order_acquire) != phase)
            return;
        cpuRelax();
    }
    const auto deadline = std::chrono::steady_clock::now() + kYieldWindow;
    while (phase_.load(std::memory_order_acquire) == phase) {
        if (std::chrono::steady_clock::now() >= deadline) {
            phase_.wait(phase, std::memory_order_acquire);
            return;
        }
        std::this_thread::yield();
    }
}

PdesExecutor::PdesExecutor(std::vector<Simulator*> shards,
                           Tick lookahead)
    : shards_(std::move(shards)), lookahead_(lookahead)
{
    MW_ASSERT(!shards_.empty());
    MW_ASSERT(lookahead_ == kTickNever || lookahead_ > 0);
    stats_.resize(shards_.size());
}

void
PdesExecutor::addMailbox(int consumer_shard,
                         std::function<std::uint64_t()> flush)
{
    MW_ASSERT(consumer_shard >= 0
              && consumer_shard < static_cast<int>(shards_.size()));
    mailboxes_.push_back({consumer_shard, std::move(flush)});
}

void
PdesExecutor::run(Tick cap)
{
    stats_.assign(shards_.size(), ShardRunStats{});

    if (shards_.size() == 1) {
        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t before = shards_[0]->eventsFired();
        shards_[0]->run(cap);
        ShardRunStats& s = stats_[0];
        s.epochs = 1;
        s.eventsFired = shards_[0]->eventsFired() - before;
        s.runSeconds = secondsSince(start);
        return;
    }

    // Starting epoch: the earliest pending event anywhere.
    Tick start_time = kNoEvent;
    for (Simulator* shard : shards_) {
        const Tick next = shard->queue().nextTime();
        if (next != kTickNever)
            start_time = std::min(start_time, next);
    }
    if (start_time == kNoEvent || start_time > cap) {
        // No queued work, but elided wakeups at or before the cap
        // still count as the no-op events they stand for; settle them
        // so eventsFired includes them.
        for (std::size_t i = 0; i < shards_.size(); ++i)
            stats_[i].eventsFired += shards_[i]->settleLazy(cap);
        return;
    }

    const int n = static_cast<int>(shards_.size());
    EpochBarrier barrier(n);
    // Double-buffered min-reduction slot: epoch k publishes into
    // next[k & 1]; the other slot is reset for epoch k+1 between
    // the barriers, when no thread can still be reading it.
    std::atomic<Tick> next_time[2] = {kNoEvent, kNoEvent};

    auto worker = [&](int index) {
        Simulator& shard = *shards_[index];
        ShardRunStats& stat = stats_[index];
        Tick epoch_start = start_time;
        int parity = 0;

        for (;;) {
            const Tick window_end = lookahead_ == kTickNever
                ? cap
                : std::min(epoch_start + lookahead_ - 1, cap);

            auto t0 = std::chrono::steady_clock::now();
            const std::uint64_t before = shard.eventsFired();
            shard.run(window_end);
            stat.eventsFired += shard.eventsFired() - before;
            stat.runSeconds += secondsSince(t0);

            t0 = std::chrono::steady_clock::now();
            barrier.arriveAndWait(); // windows executed
            stat.blockedSeconds += secondsSince(t0);

            next_time[1 - parity].store(kNoEvent,
                                        std::memory_order_relaxed);
            for (const Mailbox& mailbox : mailboxes_) {
                if (mailbox.consumerShard == index)
                    stat.mailboxItems += mailbox.flush();
            }
            stat.maxQueueDepth = std::max(
                stat.maxQueueDepth,
                static_cast<std::uint64_t>(shard.queue().size()));
            stat.maxNearDepth = std::max(
                stat.maxNearDepth,
                static_cast<std::uint64_t>(shard.queue().nearSize()));
            const Tick local_next = shard.queue().nextTime();
            if (local_next != kTickNever)
                atomicMinTick(next_time[parity], local_next);

            t0 = std::chrono::steady_clock::now();
            barrier.arriveAndWait(); // mailboxes merged
            stat.blockedSeconds += secondsSince(t0);

            const Tick global_next =
                next_time[parity].load(std::memory_order_relaxed);
            parity = 1 - parity;
            ++stat.epochs;

            if (global_next == kNoEvent || global_next > cap)
                break;
            // Conservative invariant: everything at or before the
            // window end fired, and mailbox arrivals land at least
            // one lookahead past the epoch start.
            MW_ASSERT(global_next > window_end);
            if (global_next > window_end + 1) {
                // The min-reduction already fast-forwards: the next
                // epoch starts at the global next event, not at
                // window_end + 1, so every fully idle window in
                // between is never entered. Count the jump.
                ++stat.fastForwardEpochs;
                stat.fastForwardTicks += static_cast<std::uint64_t>(
                    global_next - (window_end + 1));
            }
            epoch_start = global_next;
        }

        // The loop stops once no *queued* event remains at or before
        // the cap, but elided no-op wakeups (sim::LazyTick) between
        // the final window and the cap are invisible to the
        // min-reduction; queued, they would have kept epochs running
        // to fire them. Settle them here so per-shard stats and
        // eventsFired count each as the event it stands for.
        stat.eventsFired += shard.settleLazy(cap);
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n - 1));
    for (int i = 1; i < n; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (std::thread& thread : threads)
        thread.join();
}

} // namespace mediaworm::sim
