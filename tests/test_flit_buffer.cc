/**
 * @file
 * Unit and property tests for the bounded flit FIFO (FlitBuffer) and
 * the growable ring that backs unbounded host queues.
 */

#include <deque>

#include <gtest/gtest.h>

#include "router/flit_buffer.hh"
#include "router/ring.hh"
#include "sim/random.hh"

namespace {

using namespace mediaworm::router;
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
    FlitBuffer buffer(3);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.capacity(), 3u);
    EXPECT_EQ(buffer.space(), 3u);

    buffer.push(makeFlit(1));
    buffer.push(makeFlit(2));
    EXPECT_EQ(buffer.size(), 2u);
    EXPECT_EQ(buffer.space(), 1u);
    EXPECT_FALSE(buffer.full());

    buffer.push(makeFlit(3));
    EXPECT_TRUE(buffer.full());
    EXPECT_EQ(buffer.space(), 0u);
}

TEST(FlitBuffer, FifoOrder)
{
    FlitBuffer buffer(4);
    for (int i = 0; i < 4; ++i)
        buffer.push(makeFlit(i));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(buffer.front().index, i);
        EXPECT_EQ(buffer.pop().index, i);
    }
    EXPECT_TRUE(buffer.empty());
}

TEST(FlitBuffer, WrapsAroundRepeatedly)
{
    FlitBuffer buffer(3);
    int next = 0;
    int expected = 0;
    for (int round = 0; round < 50; ++round) {
        while (!buffer.full())
            buffer.push(makeFlit(next++));
        while (!buffer.empty())
            EXPECT_EQ(buffer.pop().index, expected++);
    }
    EXPECT_EQ(next, expected);
}

TEST(FlitBuffer, FrontIsMutable)
{
    FlitBuffer buffer(2);
    buffer.push(makeFlit(1));
    buffer.front().stamp = 777;
    EXPECT_EQ(buffer.pop().stamp, 777);
}

TEST(FlitBuffer, ClearEmptiesButKeepsCapacity)
{
    FlitBuffer buffer(2);
    buffer.push(makeFlit(1));
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.capacity(), 2u);
    buffer.push(makeFlit(2));
    EXPECT_EQ(buffer.front().index, 2);
}

// --- Ring: the unbounded host queue (NI, PCS) -------------------------------

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

/** Property: random push/pop interleavings match std::deque. */
TEST(FlitBufferProperty, MatchesDequeModel)
{
    Rng rng(0xabcd);
    for (int round = 0; round < 10; ++round) {
        const std::size_t capacity = 1 + rng.uniformInt(16);
        FlitBuffer buffer(capacity);
        std::deque<int> model;
        int next = 0;
        for (int op = 0; op < 2000; ++op) {
            if (rng.bernoulli(0.55) && !buffer.full()) {
                buffer.push(makeFlit(next));
                model.push_back(next);
                ++next;
            } else if (!buffer.empty()) {
                ASSERT_EQ(buffer.front().index, model.front());
                ASSERT_EQ(buffer.pop().index, model.front());
                model.pop_front();
            }
            ASSERT_EQ(buffer.size(), model.size());
            ASSERT_EQ(buffer.empty(), model.empty());
            ASSERT_EQ(buffer.full(), model.size() == capacity);
        }
    }
}

} // namespace
