/**
 * @file
 * Unit and property tests for sim::Ring, the one FIFO ring behind VC
 * flit buffers (bounded by their owners at the configured depth),
 * link pipes, host queues and the Tracer.
 */

#include <deque>

#include <gtest/gtest.h>

#include "router/flit.hh"
#include "sim/random.hh"
#include "sim/ring.hh"

namespace {

using mediaworm::router::Flit;
using mediaworm::sim::Ring;
using mediaworm::sim::Rng;

Flit
makeFlit(int index)
{
    Flit flit;
    flit.index = index;
    return flit;
}

TEST(FlitBuffer, BoundedBasics)
{
    Ring<Flit> buffer(3);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.capacity(), 3u);

    buffer.push_back(makeFlit(1));
    buffer.push_back(makeFlit(2));
    EXPECT_EQ(buffer.size(), 2u);

    buffer.push_back(makeFlit(3));
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.capacity(), 3u);
}

TEST(FlitBuffer, FifoOrder)
{
    Ring<Flit> buffer(4);
    for (int i = 0; i < 4; ++i)
        buffer.push_back(makeFlit(i));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(buffer[0].index, i);
        EXPECT_EQ(buffer.front().index, i);
        buffer.pop_front();
    }
    EXPECT_TRUE(buffer.empty());
}

/** Exact capacities that are not powers of two wrap in place, and a
 *  ring its owner keeps at capacity never grows. */
TEST(FlitBuffer, WrapsAroundRepeatedly)
{
    for (const std::size_t capacity : {std::size_t{3}, std::size_t{20}}) {
        Ring<Flit> buffer(capacity);
        int next = 0;
        int expected = 0;
        for (int round = 0; round < 50; ++round) {
            // Offset each round by one so the head visits every slot.
            while (buffer.size() < capacity)
                buffer.push_back(makeFlit(next++));
            for (std::size_t i = 0; i < capacity; ++i)
                EXPECT_EQ(buffer[i].index, expected + static_cast<int>(i));
            const std::size_t drain = round % 2 == 0 ? capacity : 1;
            for (std::size_t i = 0; i < drain; ++i) {
                EXPECT_EQ(buffer.front().index, expected++);
                buffer.pop_front();
            }
            EXPECT_EQ(buffer.capacity(), capacity);
        }
        while (!buffer.empty()) {
            EXPECT_EQ(buffer.front().index, expected++);
            buffer.pop_front();
        }
        EXPECT_EQ(next, expected);
        EXPECT_EQ(buffer.capacity(), capacity);
    }
}

TEST(FlitBuffer, PushReturnsTheStoredSlot)
{
    Ring<Flit> buffer(2);
    buffer.push_back(makeFlit(0));
    buffer.pop_front();
    buffer.push_back(makeFlit(1));
    // Flit 2 wraps to slot 0; the returned reference is that slot.
    Flit& stored = buffer.push_back(makeFlit(2));
    stored.stamp = 555;
    EXPECT_EQ(buffer[1].stamp, 555);
    EXPECT_EQ(buffer.capacity(), 2u);
}

TEST(FlitBuffer, FrontIsMutable)
{
    Ring<Flit> buffer(2);
    buffer.push_back(makeFlit(1));
    buffer.front().stamp = 777;
    EXPECT_EQ(buffer.front().stamp, 777);
}

TEST(FlitBuffer, ClearEmptiesButKeepsCapacity)
{
    Ring<Flit> buffer(2);
    buffer.push_back(makeFlit(1));
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.capacity(), 2u);
    buffer.push_back(makeFlit(2));
    EXPECT_EQ(buffer.front().index, 2);
}

// --- Growth: unbounded queues (link pipes, NI and PCS host queues) ---------

TEST(Ring, GrowsWithoutBound)
{
    Ring<Flit> queue;
    EXPECT_EQ(queue.capacity(), 0u);
    for (int i = 0; i < 10000; ++i)
        queue.push_back(makeFlit(i));
    EXPECT_EQ(queue.size(), 10000u);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(queue.front().index, i);
        queue.pop_front();
    }
    EXPECT_TRUE(queue.empty());
}

TEST(Ring, GrowthPreservesOrderAcrossWrap)
{
    Ring<Flit> queue;
    // Interleave pushes and pops so head is nonzero when it grows.
    for (int i = 0; i < 10; ++i)
        queue.push_back(makeFlit(i));
    for (int i = 0; i < 7; ++i)
        queue.pop_front();
    for (int i = 10; i < 100; ++i)
        queue.push_back(makeFlit(i));
    for (int i = 7; i < 100; ++i) {
        EXPECT_EQ(queue.front().index, i);
        queue.pop_front();
    }
}

/** An exact, non-power-of-two capacity doubles when a push finds it
 *  full while its contents wrap past the end of the store. */
TEST(Ring, GrowthFromExactCapacityPreservesOrderAcrossWrap)
{
    Ring<Flit> queue(5);
    for (int i = 0; i < 5; ++i)
        queue.push_back(makeFlit(i));
    for (int i = 0; i < 3; ++i)
        queue.pop_front();
    for (int i = 5; i < 8; ++i)
        queue.push_back(makeFlit(i)); // wraps: slots 0..2
    EXPECT_EQ(queue.capacity(), 5u);
    queue.push_back(makeFlit(8)); // full at the push: grows
    EXPECT_EQ(queue.capacity(), 10u);
    for (int i = 3; i < 9; ++i) {
        EXPECT_EQ(queue.front().index, i);
        queue.pop_front();
    }
    EXPECT_TRUE(queue.empty());
}

/** Property: random push/pop interleavings, bounded the way the
 *  router bounds a VC buffer, match std::deque and never grow. */
TEST(FlitBufferProperty, MatchesDequeModel)
{
    Rng rng(0xabcd);
    for (int round = 0; round < 10; ++round) {
        const std::size_t capacity = 1 + rng.uniformInt(16);
        Ring<Flit> buffer(capacity);
        std::deque<int> model;
        int next = 0;
        for (int op = 0; op < 2000; ++op) {
            if (rng.bernoulli(0.55) && buffer.size() < capacity) {
                buffer.push_back(makeFlit(next));
                model.push_back(next);
                ++next;
            } else if (!buffer.empty()) {
                ASSERT_EQ(buffer.front().index, model.front());
                buffer.pop_front();
                model.pop_front();
            }
            ASSERT_EQ(buffer.size(), model.size());
            ASSERT_EQ(buffer.empty(), model.empty());
            ASSERT_EQ(buffer.capacity(), capacity);
            for (std::size_t i = 0; i < model.size(); ++i)
                ASSERT_EQ(buffer[i].index, model[i]);
        }
    }
}

} // namespace
