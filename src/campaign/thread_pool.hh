/**
 * @file
 * Fixed-size worker-thread pool for fanning independent experiment
 * runs out across cores.
 *
 * Deliberately minimal: a mutex-protected FIFO of std::function
 * tasks, a wait() barrier, and join-on-destruction. Experiment runs
 * are seconds long, so queue-lock contention is irrelevant; what
 * matters is that the pool is easy to reason about for determinism
 * (tasks only ever write disjoint result slots).
 */

#ifndef MEDIAWORM_CAMPAIGN_THREAD_POOL_HH
#define MEDIAWORM_CAMPAIGN_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mediaworm::campaign {

/** Fixed pool of worker threads draining a shared task queue. */
class ThreadPool
{
  public:
    /**
     * Starts @p threads workers.
     * @param threads Must be >= 1; pass sim::usableCpus() for "all".
     */
    explicit ThreadPool(int threads);

    /** Waits for queued tasks to finish, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueues @p task for execution by some worker. */
    void submit(std::function<void()> task);

    /** Blocks until every submitted task has completed. */
    void wait();

    /** Number of worker threads in the pool. */
    int threads() const { return static_cast<int>(workers_.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable wake_;  ///< Signals workers: task or stop.
    std::condition_variable idle_;  ///< Signals wait(): all done.
    std::size_t unfinished_ = 0;    ///< Queued + currently running.
    bool stopping_ = false;
};

} // namespace mediaworm::campaign

#endif // MEDIAWORM_CAMPAIGN_THREAD_POOL_HH
