/**
 * @file
 * Unit tests for the CBR/VBR/GoP frame stream source, using a
 * capturing injector instead of a network.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "traffic/frame_source.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::traffic;

class CapturingInjector final : public Injector
{
  public:
    explicit CapturingInjector(Simulator& simulator)
        : simulator_(simulator)
    {
    }

    void
    injectMessage(const MessageDesc& message) override
    {
        times.push_back(simulator_.now());
        messages.push_back(message);
    }

    std::vector<Tick> times;
    std::vector<MessageDesc> messages;

  private:
    Simulator& simulator_;
};

Stream
testStream(config::TrafficConfig& cfg)
{
    Stream stream;
    stream.id = StreamId(5);
    stream.src = NodeId(0);
    stream.dst = NodeId(3);
    stream.cls = router::TrafficClass::Vbr;
    stream.vcLane = 2;
    stream.vtick = cfg.streamVtick(32);
    stream.frameInterval = cfg.frameInterval;
    stream.startOffset = milliseconds(1);
    return stream;
}

class FrameSourceTest : public testing::Test
{
  protected:
    FrameSourceTest() : injector(simulator) {}

    void
    run(config::TrafficConfig cfg)
    {
        cfg.validate();
        const Stream stream = testStream(cfg);
        source = std::make_unique<FrameSource>(
            simulator, stream, cfg, 32, injector, Rng(42));
        source->start();
        simulator.runToCompletion();
    }

    Simulator simulator;
    CapturingInjector injector;
    std::unique_ptr<FrameSource> source;
};

TEST_F(FrameSourceTest, GeneratesExactFrameCount)
{
    config::TrafficConfig cfg;
    cfg.warmupFrames = 2;
    cfg.measuredFrames = 3;
    run(cfg);

    EXPECT_EQ(source->framesGenerated(), 5);
    int end_of_frame = 0;
    for (const auto& message : injector.messages)
        end_of_frame += message.endOfFrame;
    EXPECT_EQ(end_of_frame, 5);
}

TEST_F(FrameSourceTest, CbrFramesHaveIdenticalMessageCounts)
{
    config::TrafficConfig cfg;
    cfg.realTimeKind = config::RealTimeKind::Cbr;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 4;
    run(cfg);

    // 16666 bytes / (19 payload flits * 4 B) = 220 messages per frame.
    const int expected_messages = static_cast<int>(
        std::ceil(16666.0 / (19 * 4)));
    std::vector<int> per_frame(4, 0);
    for (const auto& message : injector.messages)
        ++per_frame[static_cast<std::size_t>(message.frame)];
    for (int frame = 0; frame < 4; ++frame)
        EXPECT_EQ(per_frame[static_cast<std::size_t>(frame)],
                  expected_messages);
}

TEST_F(FrameSourceTest, VbrFrameSizesVary)
{
    config::TrafficConfig cfg;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 8;
    run(cfg);

    std::vector<int> per_frame(8, 0);
    for (const auto& message : injector.messages)
        ++per_frame[static_cast<std::size_t>(message.frame)];
    int distinct = 0;
    for (int frame = 1; frame < 8; ++frame)
        distinct += per_frame[static_cast<std::size_t>(frame)]
            != per_frame[0];
    EXPECT_GT(distinct, 0) << "VBR frames all had the same size";
}

TEST_F(FrameSourceTest, MessagesCarryStreamDescriptor)
{
    config::TrafficConfig cfg;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 1;
    run(cfg);

    ASSERT_FALSE(injector.messages.empty());
    MessageSeq expected_seq = 0;
    for (const auto& message : injector.messages) {
        EXPECT_EQ(message.stream, StreamId(5));
        EXPECT_EQ(message.dest, NodeId(3));
        EXPECT_EQ(message.vcLane, 2);
        EXPECT_EQ(message.cls, router::TrafficClass::Vbr);
        EXPECT_EQ(message.seq, expected_seq++);
        EXPECT_GE(message.numFlits, 2);
    }
}

TEST_F(FrameSourceTest, InjectionTimesAreMonotoneAndWithinFrames)
{
    config::TrafficConfig cfg;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 3;
    run(cfg);

    for (std::size_t i = 1; i < injector.times.size(); ++i)
        EXPECT_GE(injector.times[i], injector.times[i - 1]);

    // First message of each frame lands on the frame boundary
    // (offset by the stream's start offset).
    std::vector<Tick> frame_starts;
    for (std::size_t i = 0; i < injector.messages.size(); ++i) {
        if (injector.messages[i].seq == 0
            || injector.messages[i - 1].frame
                != injector.messages[i].frame) {
            frame_starts.push_back(injector.times[i]);
        }
    }
    ASSERT_EQ(frame_starts.size(), 3u);
    EXPECT_EQ(frame_starts[0], milliseconds(1));
    EXPECT_EQ(frame_starts[1], milliseconds(1) + cfg.frameInterval);
}

TEST_F(FrameSourceTest, AnchoredTailLandsOneNominalGapBeforeNextFrame)
{
    config::TrafficConfig cfg;
    cfg.realTimeKind = config::RealTimeKind::Vbr;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 6;
    run(cfg);

    const int nominal_messages =
        static_cast<int>(std::ceil(16666.0 / (19 * 4)));
    const Tick nominal_gap =
        cfg.frameInterval / nominal_messages;

    std::vector<Tick> tails;
    for (std::size_t i = 0; i < injector.messages.size(); ++i) {
        if (injector.messages[i].endOfFrame)
            tails.push_back(injector.times[i]);
    }
    ASSERT_EQ(tails.size(), 6u);
    for (std::size_t i = 0; i < tails.size(); ++i) {
        const Tick frame_start = milliseconds(1)
            + static_cast<Tick>(i) * cfg.frameInterval;
        const Tick expected =
            frame_start + cfg.frameInterval - nominal_gap;
        EXPECT_NEAR(static_cast<double>(tails[i]),
                    static_cast<double>(expected),
                    static_cast<double>(nominal_gap) / 2.0)
            << "frame " << i;
    }
}

TEST_F(FrameSourceTest, LastMessageOfFrameMayBeShort)
{
    config::TrafficConfig cfg;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 4;
    run(cfg);

    for (std::size_t i = 0; i < injector.messages.size(); ++i) {
        const auto& message = injector.messages[i];
        if (!message.endOfFrame) {
            EXPECT_EQ(message.numFlits, cfg.messageFlits);
        } else {
            EXPECT_LE(message.numFlits, cfg.messageFlits);
            EXPECT_GE(message.numFlits, 2);
        }
    }
}

TEST_F(FrameSourceTest, GopPatternProducesLargeIFrames)
{
    config::TrafficConfig cfg;
    cfg.realTimeKind = config::RealTimeKind::MpegGop;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 24; // two full GoPs
    run(cfg);

    std::vector<int> per_frame(24, 0);
    for (const auto& message : injector.messages)
        ++per_frame[static_cast<std::size_t>(message.frame)];
    // I frames (positions 0, 12) dominate their neighbours (B).
    EXPECT_GT(per_frame[0], 2 * per_frame[1]);
    EXPECT_GT(per_frame[12], 2 * per_frame[13]);
    // P frames (position 3) sit between.
    EXPECT_GT(per_frame[3], per_frame[1]);
    EXPECT_LT(per_frame[3], per_frame[0]);
}

TEST_F(FrameSourceTest, DeterministicForSameRngSeed)
{
    config::TrafficConfig cfg;
    cfg.warmupFrames = 0;
    cfg.measuredFrames = 3;

    run(cfg);
    const auto first = injector.messages;
    injector.messages.clear();
    injector.times.clear();

    // Fresh simulator/state, same seed: identical message stream.
    Simulator simulator2;
    CapturingInjector injector2(simulator2);
    cfg.validate();
    const Stream stream = testStream(cfg);
    FrameSource source2(simulator2, stream, cfg, 32, injector2,
                        Rng(42));
    source2.start();
    simulator2.runToCompletion();

    ASSERT_EQ(first.size(), injector2.messages.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].numFlits, injector2.messages[i].numFlits);
}

} // namespace
