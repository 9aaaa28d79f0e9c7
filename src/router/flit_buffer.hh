/**
 * @file
 * Fixed-capacity FIFO flit buffer (a VC's flit storage).
 */

#ifndef MEDIAWORM_ROUTER_FLIT_BUFFER_HH
#define MEDIAWORM_ROUTER_FLIT_BUFFER_HH

#include <vector>

#include "router/flit.hh"
#include "sim/logging.hh"

namespace mediaworm::router {

/**
 * Ring buffer of flits with a hard capacity.
 *
 * Unbounded host queues (the NI's, PCS's) use router::Ring instead.
 * A default-constructed buffer has capacity 0 and holds no storage;
 * the router leaves the VCs of unwired ports that way and never
 * routes a flit to them.
 */
class FlitBuffer
{
  public:
    /** @param capacity Maximum flits held. */
    explicit FlitBuffer(std::size_t capacity = 0)
        : capacity_(capacity), ring_(capacity)
    {
    }

    /** True when no flits are buffered. */
    bool empty() const { return size_ == 0; }

    /** Buffered flit count. */
    std::size_t size() const { return size_; }

    /** Configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Remaining space. */
    std::size_t space() const { return capacity_ - size_; }

    /** True if at capacity. */
    bool full() const { return size_ == capacity_; }

    /**
     * Appends a flit; the buffer must not be full. Returns a
     * reference to the stored copy (valid until the next push/pop),
     * so callers that stamp arrival fields can write them in place
     * instead of staging the flit through a stack temporary.
     */
    Flit&
    push(const Flit& flit)
    {
        MW_DEBUG_ASSERT(!full());
        // head_ < ring size and size_ <= ring size, so one
        // conditional subtract wraps; avoids a per-push integer
        // division (ring sizes are not powers of two in general).
        std::size_t tail = head_ + size_;
        if (tail >= ring_.size())
            tail -= ring_.size();
        ring_[tail] = flit;
        ++size_;
        return ring_[tail];
    }

    /** The oldest flit; the buffer must not be empty. */
    const Flit&
    front() const
    {
        MW_DEBUG_ASSERT(size_ > 0);
        return ring_[head_];
    }

    /** Mutable access to the oldest flit. */
    Flit&
    front()
    {
        MW_DEBUG_ASSERT(size_ > 0);
        return ring_[head_];
    }

    /** Removes and returns the oldest flit. */
    Flit
    pop()
    {
        MW_DEBUG_ASSERT(size_ > 0);
        Flit flit = ring_[head_];
        dropFront();
        return flit;
    }

    /** Removes the oldest flit without copying it out; pair with
     *  front() when the caller has already consumed the head. */
    void
    dropFront()
    {
        MW_DEBUG_ASSERT(size_ > 0);
        ++head_;
        if (head_ == ring_.size())
            head_ = 0;
        --size_;
    }

    /** Drops all flits. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<Flit> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace mediaworm::router

#endif // MEDIAWORM_ROUTER_FLIT_BUFFER_HH
