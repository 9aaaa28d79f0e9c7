/**
 * @file
 * FIFO ring buffer with an exact capacity.
 *
 * The simulator's one ring: router and PCS VC buffers, link pipes,
 * host queues and the Tracer's record window. Contiguous storage,
 * no per-node allocation, and indices wrap by one conditional
 * subtract, so a capacity need not be a power of two (a 20-flit VC
 * buffer holds 20 slots, not 32). The ring doubles its backing store
 * when a push finds it full. Owners that bound a ring themselves (a
 * VC buffer at the configured depth, the Tracer at its window) never
 * let it grow; unbounded queues (link pipes bounded by credits, host
 * queues) reach their working-set capacity once and never allocate
 * again.
 */

#ifndef MEDIAWORM_SIM_RING_HH
#define MEDIAWORM_SIM_RING_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"

namespace mediaworm::sim {

/** Contiguous FIFO ring that grows by doubling when full. */
template <class T>
class Ring
{
  public:
    /** @param capacity Initial capacity, exactly; 0 defers
     *  allocation to the first push. */
    explicit Ring(std::size_t capacity = 0) : slots_(capacity) {}

    /** True when no elements are queued. */
    bool empty() const { return size_ == 0; }

    /** Queued element count. */
    std::size_t size() const { return size_; }

    /** Current backing capacity. */
    std::size_t capacity() const { return slots_.size(); }

    /** The oldest element; the ring must not be empty. */
    const T&
    front() const
    {
        MW_ASSERT(size_ > 0);
        return slots_[head_];
    }

    /** Mutable access to the oldest element. */
    T&
    front()
    {
        MW_ASSERT(size_ > 0);
        return slots_[head_];
    }

    /** The @p i 'th oldest element (0 = front); @p i < size(). */
    const T&
    operator[](std::size_t i) const
    {
        MW_ASSERT(i < size_);
        return slots_[slot(i)];
    }

    /**
     * Appends @p value, growing the backing store if full. Returns
     * the stored copy (valid until the next push or pop), so callers
     * that stamp fields can write them in place.
     */
    T&
    push_back(const T& value)
    {
        if (size_ == slots_.size())
            grow();
        T& stored = slots_[slot(size_)];
        stored = value;
        ++size_;
        return stored;
    }

    /** Drops the oldest element; the ring must not be empty. */
    void
    pop_front()
    {
        MW_ASSERT(size_ > 0);
        head_ = slot(1);
        --size_;
    }

    /** Drops every element (capacity is retained). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Backing index of the @p i 'th oldest slot: head_ is below
     *  the capacity and @p i at most it, so one subtract wraps. */
    std::size_t
    slot(std::size_t i) const
    {
        std::size_t s = head_ + i;
        if (s >= slots_.size())
            s -= slots_.size();
        return s;
    }

    void
    grow()
    {
        const std::size_t old_cap = slots_.size();
        std::vector<T> next(old_cap == 0 ? 16 : old_cap * 2);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = slots_[slot(i)];
        slots_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_RING_HH
