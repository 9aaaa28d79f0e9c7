/**
 * @file
 * Conservative parallel discrete-event execution (Chandy-Misra-Bryant
 * style) over a set of shard Simulators.
 *
 * Each shard owns a disjoint set of model components with their own
 * two-tier event queue and clock. Shards interact only through
 * registered mailboxes (cross-shard link channels): during an epoch a
 * producer appends into a mailbox without scheduling anything on the
 * consumer; at the epoch boundary the consumer drains its mailboxes
 * and schedules the resulting delivery events on its own queue.
 *
 * Epoch protocol (two EpochBarrier phases per epoch):
 *
 *   1. Every shard runs its local events in the window [T, T+W-1]
 *      where W is the lookahead - the minimum cross-shard link
 *      delay. Anything a shard sends in this window arrives at or
 *      after T+W, so no shard can receive an event inside the window
 *      it is currently executing: local order is safe.
 *   2. Barrier. Each shard flushes the mailboxes it consumes,
 *      scheduling arrivals (all at >= T+W) on its queue, and
 *      publishes its next pending event time.
 *   3. Barrier. All shards adopt T' = min over shards of the next
 *      pending time (fast-forward over idle gaps) and start the next
 *      epoch, or terminate when no events remain or T' exceeds the
 *      cap.
 *
 * Determinism: mailbox delivery events carry canonical tie-break
 * keys (Event::setCanonicalSeq), so each shard's (when, seq) order
 * over its own events is identical to the single-threaded kernel's
 * order restricted to that shard - sharded runs reproduce the
 * single-threaded modelDigest and event counts bit for bit (see
 * DESIGN.md section 12 for the induction argument).
 */

#ifndef MEDIAWORM_SIM_PDES_HH
#define MEDIAWORM_SIM_PDES_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hh"
#include "sim/time.hh"

namespace mediaworm::sim {

/**
 * Reusable sense-reversing barrier for the epoch protocol.
 *
 * Arrivals are counted; the last arriver resets the count and bumps
 * the phase word, which releases everyone waiting on the old phase.
 * Everything a thread wrote before arriving happens-before everything
 * any thread does after leaving the same phase.
 *
 * A waiter escalates through three stages (DESIGN.md section 12):
 * a short CPU-pause spin, then std::this_thread::yield() until a
 * fixed deadline, then a futex park via std::atomic::wait. Epochs
 * are microseconds long, so most waits end in the first two stages
 * without a sleep/wake round trip; the yield stage keeps waiters from
 * starving runnable shards when there are more shards than CPUs.
 */
class EpochBarrier
{
  public:
    /** @param parties Threads that must arrive per phase (>= 1). */
    explicit EpochBarrier(int parties);

    EpochBarrier(const EpochBarrier&) = delete;
    EpochBarrier& operator=(const EpochBarrier&) = delete;

    /** Arrives and blocks until all parties reached this phase. */
    void arriveAndWait();

  private:
    const int parties_;
    alignas(64) std::atomic<int> arrived_{0};
    alignas(64) std::atomic<std::uint32_t> phase_{0};
};

/** Per-shard execution counters from one PdesExecutor::run(). */
struct ShardRunStats
{
    /** Synchronization epochs this shard participated in. */
    std::uint64_t epochs = 0;
    /** Events fired by this shard during the run. */
    std::uint64_t eventsFired = 0;
    /** Largest pending-queue size observed at an epoch boundary. */
    std::uint64_t maxQueueDepth = 0;
    /** Near-tier share of maxQueueDepth's snapshot. */
    std::uint64_t maxNearDepth = 0;
    /** Items this shard's consumed mailboxes delivered to it. */
    std::uint64_t mailboxItems = 0;
    /** Epoch transitions that jumped past at least one fully idle
     *  lookahead window (global next event beyond window_end + 1). */
    std::uint64_t fastForwardEpochs = 0;
    /** Ticks skipped by those jumps; intra-window idle ticks are
     *  counted by each shard's Simulator::idleTicksSkipped(). */
    std::uint64_t fastForwardTicks = 0;
    /** Wall time spent executing local events. */
    double runSeconds = 0.0;
    /** Wall time spent blocked on the epoch barriers (waiting for
     *  slower shards - the conservative-sync overhead). */
    double blockedSeconds = 0.0;
};

/**
 * Runs N shard Simulators to a time cap under conservative
 * lookahead synchronization. The executor does not own the shards
 * or the model; it only drives their queues.
 */
class PdesExecutor
{
  public:
    /**
     * @param shards One Simulator per shard; index is the shard id.
     * @param lookahead Minimum cross-shard event latency W (> 0).
     *        Pass kTickNever when no mailboxes exist: shards are
     *        then independent and run straight to the cap.
     */
    PdesExecutor(std::vector<Simulator*> shards, Tick lookahead);

    /**
     * Registers a mailbox drained by @p consumer_shard. @p flush
     * moves everything its producer appended into the consumer's
     * queue and returns the number of items moved. It is called only
     * from the consumer's worker thread, between epoch barriers.
     */
    void addMailbox(int consumer_shard,
                    std::function<std::uint64_t()> flush);

    /**
     * Runs all shards until their queues drain or the next event
     * would fire after @p cap (events exactly at the cap still
     * fire, matching Simulator::run semantics). Single entry, joins
     * all workers before returning.
     */
    void run(Tick cap);

    /** Per-shard counters from the last run(). */
    const std::vector<ShardRunStats>& stats() const { return stats_; }

  private:
    struct Mailbox
    {
        int consumerShard;
        std::function<std::uint64_t()> flush;
    };

    std::vector<Simulator*> shards_;
    Tick lookahead_;
    std::vector<Mailbox> mailboxes_;
    std::vector<ShardRunStats> stats_;
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_PDES_HH
