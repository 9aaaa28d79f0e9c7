/**
 * @file
 * Reference multiplexer scheduling disciplines (test oracle).
 *
 * The original candidate-vector Scheduler classes: each round the
 * caller scans its slots in ascending order into a vector of eligible
 * Candidates and a virtual pick() returns the winner's index. The
 * simulator arbitrates through router::MultiPortArbiter's bitmask
 * kernels instead; tests/test_arbiter.cc fuzzes those kernels against these
 * classes, which stay deliberately simple so they are easy to check
 * by eye.
 */

#ifndef MEDIAWORM_TESTS_REFERENCE_SCHEDULER_HH
#define MEDIAWORM_TESTS_REFERENCE_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "config/router_config.hh"
#include "router/arbiter.hh"
#include "sim/time.hh"

namespace mediaworm::reference {

/** One VC competing for the multiplexer in this round. */
struct Candidate
{
    int slot;              ///< VC index at this scheduling point.
    sim::Tick stamp;       ///< Virtual Clock timestamp of the head flit.
    std::uint64_t fifoSeq; ///< Arrival order of the head flit.
    sim::Tick vtick;       ///< Rate request (for weighted disciplines).
};

/** Strategy interface: pick one candidate to serve. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Picks the winning candidate.
     *
     * @param candidates Non-empty set of eligible VCs.
     * @return Index into @p candidates of the winner.
     */
    virtual std::size_t
    pick(const std::vector<Candidate>& candidates) = 0;
};

/** Serves the flit that arrived first (conventional router). */
class FifoScheduler final : public Scheduler
{
  public:
    std::size_t pick(const std::vector<Candidate>& candidates) override;
};

/** Rotating priority among VC slots. */
class RoundRobinScheduler final : public Scheduler
{
  public:
    std::size_t pick(const std::vector<Candidate>& candidates) override;

  private:
    int lastSlot_ = -1;
};

/** Lowest Virtual Clock stamp first; FIFO among equal stamps. */
class VirtualClockScheduler final : public Scheduler
{
  public:
    std::size_t pick(const std::vector<Candidate>& candidates) override;
};

/**
 * Deficit round robin with quanta proportional to requested rate
 * (1/Vtick), in the same Q32.32 accounting as the arbiter kernel
 * (router::kWrrQuantum, router::wrrWeight).
 */
class WeightedRoundRobinScheduler final : public Scheduler
{
  public:
    std::size_t pick(const std::vector<Candidate>& candidates) override;

  private:
    std::vector<std::uint64_t> deficit_; ///< Q32.32 fixed point.
    int lastSlot_ = -1;
};

/** Instantiates the scheduler selected by @p kind. */
std::unique_ptr<Scheduler> makeScheduler(config::SchedulerKind kind);

} // namespace mediaworm::reference

#endif // MEDIAWORM_TESTS_REFERENCE_SCHEDULER_HH
