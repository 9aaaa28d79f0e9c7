/**
 * @file
 * Growable power-of-two ring buffer (FIFO).
 *
 * Replaces std::deque on the router/link hot paths: contiguous
 * storage, index-mask addressing, and no per-node allocation. The
 * ring doubles its backing store when full - in steady state (link
 * pipes bounded by credits, waiter lists bounded by VC counts) it
 * reaches its working-set capacity once and never allocates again.
 */

#ifndef MEDIAWORM_ROUTER_RING_HH
#define MEDIAWORM_ROUTER_RING_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"

namespace mediaworm::router {

/** Fixed-layout FIFO ring that grows by doubling when full. */
template <class T>
class Ring
{
  public:
    /** @param capacity_hint Initial capacity (rounded up to a power
     *  of two); 0 defers allocation to the first push. */
    explicit Ring(std::size_t capacity_hint = 0)
    {
        if (capacity_hint > 0)
            slots_.resize(roundUpPow2(capacity_hint));
    }

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

    /** Mutable access to the newest element. */
    T&
    back()
    {
        MW_ASSERT(size_ > 0);
        return slots_[(head_ + size_ - 1) & (slots_.size() - 1)];
    }

    /** The @p i 'th oldest element (0 = front); @p i < size(). */
    const T&
    operator[](std::size_t i) const
    {
        MW_ASSERT(i < size_);
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    /** Appends @p value, growing the backing store if full. */
    void
    push_back(const T& value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = value;
        ++size_;
    }

    /** Drops the oldest element; the ring must not be empty. */
    void
    pop_front()
    {
        MW_ASSERT(size_ > 0);
        head_ = (head_ + 1) & (slots_.size() - 1);
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
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p *= 2;
        return p;
    }

    void
    grow()
    {
        const std::size_t old_cap = slots_.size();
        std::vector<T> next(old_cap == 0 ? 16 : old_cap * 2);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = slots_[(head_ + i) & (old_cap - 1)];
        slots_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace mediaworm::router

#endif // MEDIAWORM_ROUTER_RING_HH
