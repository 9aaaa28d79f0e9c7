/**
 * @file
 * Unit tests for strong identifiers and the logging level gate.
 */

#include <unordered_set>

#include <gtest/gtest.h>

#include "sim/ids.hh"
#include "sim/logging.hh"

namespace {

using namespace mediaworm::sim;

TEST(StrongId, DefaultIsInvalid)
{
    NodeId id;
    EXPECT_FALSE(id.valid());
    EXPECT_EQ(id.value(), -1);
}

TEST(StrongId, ExplicitValueIsValid)
{
    NodeId id(5);
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(id.value(), 5);
}

TEST(StrongId, ComparesByValue)
{
    EXPECT_EQ(NodeId(3), NodeId(3));
    EXPECT_NE(NodeId(3), NodeId(4));
    EXPECT_LT(NodeId(3), NodeId(4));
}

TEST(StrongId, DistinctTagsAreDistinctTypes)
{
    static_assert(!std::is_same_v<NodeId, PortId>);
    static_assert(!std::is_same_v<StreamId, VcId>);
    SUCCEED();
}

TEST(StrongId, Hashable)
{
    std::unordered_set<StreamId> set;
    set.insert(StreamId(1));
    set.insert(StreamId(2));
    set.insert(StreamId(1));
    EXPECT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.contains(StreamId(2)));
    EXPECT_FALSE(set.contains(StreamId(3)));
}

TEST(Logging, WarnAlwaysPrints)
{
    testing::internal::CaptureStderr();
    warn("odd value %d", 1);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "warn: odd value 1\n");
}

TEST(LoggingDeath, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(fatal("user error %d", 42),
                testing::ExitedWithCode(1), "user error 42");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("bug %s", "here"), "bug here");
}

TEST(LoggingDeath, AssertMacroPanicsWithLocation)
{
    EXPECT_DEATH(MW_ASSERT(1 == 2), "assertion '1 == 2' failed");
}

} // namespace
