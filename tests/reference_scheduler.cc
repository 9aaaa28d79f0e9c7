#include "reference_scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mediaworm::reference {

using router::kWrrQuantum;
using router::wrrWeight;

std::size_t
FifoScheduler::pick(const std::vector<Candidate>& candidates)
{
    MW_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].fifoSeq < candidates[best].fifoSeq)
            best = i;
    }
    return best;
}

std::size_t
RoundRobinScheduler::pick(const std::vector<Candidate>& candidates)
{
    MW_ASSERT(!candidates.empty());
    // Smallest slot strictly greater than the previous winner,
    // wrapping to the smallest slot overall.
    int best_above = -1;
    std::size_t best_above_index = 0;
    int best_any = -1;
    std::size_t best_any_index = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const int slot = candidates[i].slot;
        if (slot > lastSlot_
            && (best_above == -1 || slot < best_above)) {
            best_above = slot;
            best_above_index = i;
        }
        if (best_any == -1 || slot < best_any) {
            best_any = slot;
            best_any_index = i;
        }
    }
    const std::size_t winner =
        best_above != -1 ? best_above_index : best_any_index;
    lastSlot_ = candidates[winner].slot;
    return winner;
}

std::size_t
VirtualClockScheduler::pick(const std::vector<Candidate>& candidates)
{
    MW_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        const auto& c = candidates[i];
        const auto& b = candidates[best];
        if (c.stamp < b.stamp
            || (c.stamp == b.stamp && c.fifoSeq < b.fifoSeq)) {
            best = i;
        }
    }
    return best;
}

std::size_t
WeightedRoundRobinScheduler::pick(const std::vector<Candidate>& candidates)
{
    MW_ASSERT(!candidates.empty());
    // Track per-slot deficits in Q32.32 fixed point; the quantum
    // added each round is the slot's requested rate normalised so one
    // flit costs kWrrQuantum. Integer accounting replenishes exactly,
    // with no floating-point drift over long runs.
    int max_slot = 0;
    for (const auto& c : candidates)
        max_slot = std::max(max_slot, c.slot);
    if (deficit_.size() <= static_cast<std::size_t>(max_slot))
        deficit_.resize(static_cast<std::size_t>(max_slot) + 1, 0);

    // Find the eligible slot with the largest deficit; if none can
    // afford a flit, replenish all eligible slots proportionally to
    // their requested rate (weight = wrrWeight(minVtick, vtick), so
    // the fastest slot gains exactly kWrrQuantum and the loop always
    // terminates on the second pass).
    for (int round = 0; round < 2; ++round) {
        std::uint64_t best_deficit = 0;
        int best_index = -1;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const std::uint64_t d =
                deficit_[static_cast<std::size_t>(candidates[i].slot)];
            if (d >= kWrrQuantum
                && (best_index == -1 || d > best_deficit)) {
                best_deficit = d;
                best_index = static_cast<int>(i);
            }
        }
        if (best_index != -1) {
            deficit_[static_cast<std::size_t>(
                candidates[best_index].slot)] -= kWrrQuantum;
            lastSlot_ = candidates[best_index].slot;
            return static_cast<std::size_t>(best_index);
        }
        sim::Tick min_vtick = candidates[0].vtick;
        for (const auto& c : candidates)
            min_vtick = std::min(min_vtick, c.vtick);
        for (const auto& c : candidates) {
            deficit_[static_cast<std::size_t>(c.slot)] +=
                wrrWeight(min_vtick, c.vtick);
        }
    }
    sim::panic("WeightedRoundRobinScheduler: no slot became eligible");
}

std::unique_ptr<Scheduler>
makeScheduler(config::SchedulerKind kind)
{
    switch (kind) {
      case config::SchedulerKind::Fifo:
        return std::make_unique<FifoScheduler>();
      case config::SchedulerKind::RoundRobin:
        return std::make_unique<RoundRobinScheduler>();
      case config::SchedulerKind::VirtualClock:
        return std::make_unique<VirtualClockScheduler>();
      case config::SchedulerKind::WeightedRoundRobin:
        return std::make_unique<WeightedRoundRobinScheduler>();
    }
    sim::panic("makeScheduler: unknown kind");
}

} // namespace mediaworm::reference
