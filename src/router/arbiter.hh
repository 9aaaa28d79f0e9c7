/**
 * @file
 * Incremental multiplexer arbitration (DESIGN.md sections 9 and 14).
 *
 * Every multiplexer in the simulator - the router's points A and C,
 * the network interface's injection mux and the PCS source and
 * destination links - arbitrates through one MultiPortArbiter: a
 * group of multiplexers in flat struct-of-arrays storage, one 64-bit
 * eligibility mask per port and one contiguous HeadKey array. A
 * router holds one per scheduling point (port = router port), PCS
 * one per side (port = node) and the NI a one-port instance.
 *
 * Each multiplexer keeps
 *
 *  - a 64-bit *eligibility bitmask* with one bit per VC slot
 *    (config::kMaxVcs), set and cleared at the events that change
 *    eligibility (head enqueue/pop, credit return, VC grant/release),
 *    and
 *  - cached *head fields* per slot, split by access pattern: the
 *    (stamp, fifoSeq) pair every tie-break compares lives in one
 *    contiguous 16-byte-record array (HeadKey), while the WRR-only
 *    vtick sits in a separate array the other disciplines never
 *    touch - refreshed whenever the slot's head flit changes.
 *
 * The winner is computed by kernels selected on config::SchedulerKind
 * through a four-way switch the compiler turns into direct, inlinable
 * calls - no virtual dispatch and no per-round allocation.
 *
 * Every kernel enumerates the eligible slots in ascending order with
 * a ctz loop, so each tie-break resolves toward the smaller slot:
 * FIFO's strictly-smaller arrival seq, Virtual Clock's (stamp,
 * fifoSeq) lexicographic order, round-robin's smallest-slot-above
 * rotation, WRR's first-largest-deficit. tests/test_arbiter.cc fuzzes
 * the kernels against the candidate-vector Scheduler classes they
 * replaced, kept in tests/ as the reference oracle.
 */

#ifndef MEDIAWORM_ROUTER_ARBITER_HH
#define MEDIAWORM_ROUTER_ARBITER_HH

#include <cstdint>
#include <vector>

#include "config/router_config.hh"
#include "router/flit.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace mediaworm::router {

/**
 * The (stamp, fifoSeq) tie-break pair of one slot's head flit; 16
 * bytes, so four slots share a cache line.
 */
struct HeadKey
{
    sim::Tick stamp = 0;
    std::uint64_t fifoSeq = 0;
};

/**
 * Weighted round robin's one-flit service quantum in Q32.32 fixed
 * point. Deficits are integers so repeated replenishment accumulates
 * exactly - the old double-based accounting drifted when rate ratios
 * had no finite binary expansion (1/3, 1/10, ...), skewing long-run
 * service shares.
 */
constexpr std::uint64_t kWrrQuantum = std::uint64_t{1} << 32;

/**
 * Replenishment weight of a slot requesting one flit per @p vtick
 * when the fastest competing slot requests one per @p min_vtick:
 * floor(min_vtick / vtick) in Q32.32. The fastest slot gets exactly
 * kWrrQuantum, pinning the guarantee that one replenish pass always
 * makes some slot eligible.
 */
inline std::uint64_t
wrrWeight(sim::Tick min_vtick, sim::Tick vtick)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(
             static_cast<std::uint64_t>(min_vtick))
         << 32)
        / static_cast<std::uint64_t>(vtick));
}

/** Cached scheduling fields of a slot's head flit. */
struct HeadRecord
{
    sim::Tick stamp = 0;       ///< Virtual Clock timestamp.
    std::uint64_t fifoSeq = 0; ///< Arrival order at this mux.
    sim::Tick vtick = kBestEffortVtick; ///< Rate request.
};

// --- pick kernels -----------------------------------------------------------
// Free functions over raw slot arrays, so the arbiter and the
// benchmarks drive the exact same code. All take the pruned mask
// @p m (non-zero) and enumerate set bits in ascending slot order.

namespace arb {

inline int
lowestBit(std::uint64_t m)
{
    return __builtin_ctzll(m);
}

/** Smallest eligible slot strictly above @p last_slot, wrapping to
 *  the smallest eligible slot; updates the rotation pointer. */
inline int
pickRoundRobin(std::uint64_t m, int& last_slot)
{
    const std::uint64_t above =
        last_slot >= 63
            ? 0
            : m & (~std::uint64_t{0}
                   << static_cast<unsigned>(last_slot + 1));
    const int slot = lowestBit(above != 0 ? above : m);
    last_slot = slot;
    return slot;
}

/** One pass over the seq halves of the key array. */
inline int
pickFifo(std::uint64_t m, const HeadKey* keys)
{
    int best = lowestBit(m);
    std::uint64_t best_seq = keys[best].fifoSeq;
    m &= m - 1;
    while (m != 0) {
        const int slot = lowestBit(m);
        m &= m - 1;
        const std::uint64_t seq = keys[slot].fifoSeq;
        if (seq < best_seq) {
            best = slot;
            best_seq = seq;
        }
    }
    return best;
}

/** Lexicographic (stamp, fifoSeq): both fields of one 16-byte
 *  record, one contiguous stream. */
inline int
pickVirtualClock(std::uint64_t m, const HeadKey* keys)
{
    int best = lowestBit(m);
    HeadKey best_key = keys[best];
    m &= m - 1;
    while (m != 0) {
        const int slot = lowestBit(m);
        m &= m - 1;
        const HeadKey key = keys[slot];
        if (key.stamp < best_key.stamp
            || (key.stamp == best_key.stamp
                && key.fifoSeq < best_key.fifoSeq)) {
            best = slot;
            best_key = key;
        }
    }
    return best;
}

/**
 * Deficit round robin in Q32.32 fixed point (see wrrWeight). Two
 * rounds at most: the replenish pass credits the
 * fastest eligible slot with exactly one quantum.
 */
inline int
pickWrr(std::uint64_t m, const sim::Tick* vticks,
        std::uint64_t* deficit, int& last_slot)
{
    for (int round = 0; round < 2; ++round) {
        std::uint64_t scan = m;
        std::uint64_t best_deficit = 0;
        int best = -1;
        while (scan != 0) {
            const int slot = lowestBit(scan);
            scan &= scan - 1;
            const std::uint64_t d = deficit[slot];
            if (d >= kWrrQuantum && (best == -1 || d > best_deficit)) {
                best_deficit = d;
                best = slot;
            }
        }
        if (best != -1) {
            deficit[best] -= kWrrQuantum;
            last_slot = best;
            return best;
        }
        sim::Tick min_vtick = 0;
        scan = m;
        while (scan != 0) {
            const int slot = lowestBit(scan);
            scan &= scan - 1;
            const sim::Tick v = vticks[slot];
            if (min_vtick == 0 || v < min_vtick)
                min_vtick = v;
        }
        scan = m;
        while (scan != 0) {
            const int slot = lowestBit(scan);
            scan &= scan - 1;
            deficit[slot] += wrrWeight(min_vtick, vticks[slot]);
        }
    }
    sim::panic("arbiter: no WRR slot became eligible");
}

} // namespace arb

/**
 * A group of multiplexers in flat struct-of-arrays storage (DESIGN.md
 * section 14): masks_[p] is port p's eligibility bitmask and
 * keys_[p * numSlots + v] its slot v head key, so the serve loops
 * index shared arrays instead of chasing per-port objects.
 *
 * Picks are per-port operations, invoked in event order: a serve's
 * side effects (crossbar occupancy, credits, seq reservations) feed
 * the very next port's gates, so winners are never precomputed
 * across ports.
 */
class MultiPortArbiter
{
  public:
    MultiPortArbiter() = default;

    /**
     * Fixes discipline, port count and per-port slot count.
     * @p num_slots must be at most config::kMaxVcs (one bitmask bit
     * per VC; the router and PCS configs validate numVcs against the
     * same bound).
     */
    void
    init(config::SchedulerKind kind, int num_ports, int num_slots)
    {
        MW_ASSERT(num_ports >= 1 && num_ports <= 64);
        MW_ASSERT(num_slots >= 1 && num_slots <= config::kMaxVcs);
        kind_ = kind;
        numPorts_ = num_ports;
        numSlots_ = num_slots;
        const auto ports = static_cast<std::size_t>(num_ports);
        const auto slots = ports * static_cast<std::size_t>(num_slots);
        masks_.assign(ports, 0);
        keys_.assign(slots, HeadKey{});
        vticks_.assign(slots, kBestEffortVtick);
        if (kind_ == config::SchedulerKind::WeightedRoundRobin)
            deficit_.assign(slots, 0);
        lastSlot_.assign(ports, -1);
    }

    /** The discipline every port of this arbiter dispatches to. */
    config::SchedulerKind kind() const { return kind_; }

    /** True when at least one of @p port 's slots is eligible. */
    bool
    anyEligible(int port) const
    {
        return masks_[static_cast<std::size_t>(port)] != 0;
    }

    /** Port @p port 's eligibility bitmask (bit v = slot v). */
    std::uint64_t
    mask(int port) const
    {
        return masks_[static_cast<std::size_t>(port)];
    }

    /** True when slot @p slot of @p port is eligible. */
    bool
    eligible(int port, int slot) const
    {
        return (mask(port) >> static_cast<unsigned>(slot)) & 1u;
    }

    /** Cached head fields of (@p port, @p slot) (valid while
     *  eligible), gathered from the SoA arrays into a value.
     *  Diagnostics only - the pick kernels read the arrays directly. */
    HeadRecord
    head(int port, int slot) const
    {
        const std::size_t i = base(port) + static_cast<std::size_t>(slot);
        return {keys_[i].stamp, keys_[i].fifoSeq, vticks_[i]};
    }

    /**
     * Marks (@p port, @p slot) eligible and caches its head fields.
     * Also the way to refresh the cache when an eligible slot's head
     * changes (pop exposing the next flit).
     */
    void
    setEligible(int port, int slot, sim::Tick stamp,
                std::uint64_t fifo_seq, sim::Tick vtick)
    {
        MW_DEBUG_ASSERT(port >= 0 && port < numPorts_);
        MW_DEBUG_ASSERT(slot >= 0 && slot < numSlots_);
        const std::size_t i = base(port) + static_cast<std::size_t>(slot);
        keys_[i].stamp = stamp;
        keys_[i].fifoSeq = fifo_seq;
        vticks_[i] = vtick;
        masks_[static_cast<std::size_t>(port)] |=
            std::uint64_t{1} << static_cast<unsigned>(slot);
    }

    /** Convenience overload reading the fields from a head flit. */
    void
    setEligible(int port, int slot, const Flit& head)
    {
        setEligible(port, slot, head.stamp, head.arrivalSeq,
                    head.vtick);
    }

    /** Clears (@p port, @p slot)'s eligibility bit (idempotent). */
    void
    clearEligible(int port, int slot)
    {
        MW_DEBUG_ASSERT(port >= 0 && port < numPorts_);
        MW_DEBUG_ASSERT(slot >= 0 && slot < numSlots_);
        masks_[static_cast<std::size_t>(port)] &=
            ~(std::uint64_t{1} << static_cast<unsigned>(slot));
    }

    /**
     * Picks @p port 's winner among all its eligible slots and
     * updates the discipline's rotation/deficit state. The port's
     * mask must be non-empty.
     */
    int pick(int port) { return pickMasked(port, mask(port)); }

    /**
     * As pick(), but restricted to @p m, a subset of the port's
     * eligibility mask. Used by the crossbar input multiplexer, whose
     * space/crossbar gates prune the eligible set at serve time.
     */
    int
    pickMasked(int port, std::uint64_t m)
    {
        MW_DEBUG_ASSERT(m != 0 && (m & ~mask(port)) == 0);
        const HeadKey* keys = keys_.data() + base(port);
        switch (kind_) {
          case config::SchedulerKind::Fifo:
            return arb::pickFifo(m, keys);
          case config::SchedulerKind::RoundRobin:
            return arb::pickRoundRobin(
                m, lastSlot_[static_cast<std::size_t>(port)]);
          case config::SchedulerKind::VirtualClock:
            return arb::pickVirtualClock(m, keys);
          case config::SchedulerKind::WeightedRoundRobin:
            return arb::pickWrr(
                m, vticks_.data() + base(port),
                deficit_.data() + base(port),
                lastSlot_[static_cast<std::size_t>(port)]);
        }
        sim::panic("MultiPortArbiter: unknown scheduler kind");
    }

  private:
    std::size_t
    base(int port) const
    {
        return static_cast<std::size_t>(port)
            * static_cast<std::size_t>(numSlots_);
    }

    config::SchedulerKind kind_ = config::SchedulerKind::Fifo;
    int numPorts_ = 0;
    int numSlots_ = 0;
    std::vector<std::uint64_t> masks_;
    std::vector<HeadKey> keys_;
    std::vector<sim::Tick> vticks_;  ///< WRR rate requests only.
    std::vector<std::uint64_t> deficit_; ///< WRR only; Q32.32.
    std::vector<int> lastSlot_; ///< Rotation pointers (RR, WRR).
};

} // namespace mediaworm::router

#endif // MEDIAWORM_ROUTER_ARBITER_HH
