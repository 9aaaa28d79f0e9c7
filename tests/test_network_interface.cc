/**
 * @file
 * Unit tests for the network interface: flitization (differentially,
 * against an eager reference flitizer), injection pacing, credit
 * respect and sink-side metric reporting.
 */

#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "network/network_interface.hh"
#include "sim/random.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::network;

/**
 * Reference flitizer: builds every flit of @p message at injection
 * time @p now, taking arrival sequence numbers from @p next_seq. The
 * NI builds its flits one at a time as the multiplexer reaches them;
 * apart from networkEnterTime (set at launch) they must equal these
 * bit for bit. Flits leave the NI unstamped: the router stamps each
 * on arrival.
 */
std::vector<router::Flit>
referenceFlitize(const traffic::MessageDesc& message, Tick now,
                 std::uint64_t& next_seq)
{
    router::Flit flit;
    flit.cls = message.cls;
    flit.stream = message.stream;
    flit.message = static_cast<std::int32_t>(message.seq);
    flit.messageFlits = message.numFlits;
    flit.dest = message.dest;
    flit.vcLane = static_cast<std::uint8_t>(message.vcLane);
    flit.vtick = message.vtick;
    flit.injectTime = now;

    std::vector<router::Flit> flits;
    for (int i = 0; i < message.numFlits; ++i) {
        flit.index = i;
        flit.type = i == 0 ? router::FlitType::Header
            : i == message.numFlits - 1 ? router::FlitType::Tail
                                        : router::FlitType::Body;
        flit.endOfFrame =
            message.endOfFrame && flit.type == router::FlitType::Tail;
        flit.arrivalSeq = next_seq++;
        flits.push_back(flit);
    }
    return flits;
}

/** Field-by-field equality, then a whole-object compare: Flit has
 *  no padding, so memcmp also catches a field this list misses. */
void
expectSameFlit(const router::Flit& got, const router::Flit& want)
{
    EXPECT_EQ(got.vtick, want.vtick);
    EXPECT_EQ(got.injectTime, want.injectTime);
    EXPECT_EQ(got.networkEnterTime, want.networkEnterTime);
    EXPECT_EQ(got.stamp, want.stamp);
    EXPECT_EQ(got.arrivalSeq, want.arrivalSeq);
    EXPECT_EQ(got.stream, want.stream);
    EXPECT_EQ(got.dest, want.dest);
    EXPECT_EQ(got.message, want.message);
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.messageFlits, want.messageFlits);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.cls, want.cls);
    EXPECT_EQ(got.vcLane, want.vcLane);
    EXPECT_EQ(got.endOfFrame, want.endOfFrame);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(router::Flit)), 0);
}

/** Captures what the NI puts on the injection link. */
class WireTap final : public router::FlitReceiver
{
  public:
    explicit WireTap(Simulator& simulator) : simulator_(simulator) {}

    void
    receiveFlit(int, const router::Flit& flit, int vc) override
    {
        times.push_back(simulator_.now());
        flits.push_back(flit);
        vcs.push_back(vc);
    }

    std::vector<Tick> times;
    std::vector<router::Flit> flits;
    std::vector<int> vcs;

  private:
    Simulator& simulator_;
};

class NetworkInterfaceTest : public testing::Test
{
  protected:
    NetworkInterfaceTest()
        : tap(simulator),
          link(simulator, 0, "inj"),
          ejection(simulator, 0, "ej")
    {
        cfg.numPorts = 8;
        cfg.numVcs = 4;
        ni = std::make_unique<NetworkInterface>(
            simulator, NodeId(1), cfg, metrics, "ni1");
        link.connectReceiver(&tap);
        ni->connectInjectionLink(link, /*router_buffer_depth=*/4);
        ejection.connectReceiver(ni.get());
    }

    traffic::MessageDesc
    message(int flits, int lane = 0, MessageSeq seq = 0)
    {
        traffic::MessageDesc desc;
        desc.stream = StreamId(3);
        desc.dest = NodeId(5);
        desc.cls = router::TrafficClass::Vbr;
        desc.vcLane = lane;
        desc.vtick = microseconds(8);
        desc.seq = seq;
        desc.numFlits = flits;
        return desc;
    }

    Simulator simulator;
    config::RouterConfig cfg;
    MetricsHub metrics;
    WireTap tap;
    router::Link link;
    router::Link ejection;
    std::unique_ptr<NetworkInterface> ni;
};

TEST_F(NetworkInterfaceTest, FlitizesMessageCorrectly)
{
    ni->injectMessage(message(5));
    simulator.runToCompletion();

    ASSERT_EQ(tap.flits.size(), 4u)
        << "router buffer depth limits in-flight flits";
    EXPECT_TRUE(tap.flits[0].isHeader());
    EXPECT_EQ(tap.flits[0].messageFlits, 5);
    EXPECT_EQ(tap.flits[0].dest, NodeId(5));
    EXPECT_EQ(tap.flits[0].vtick, microseconds(8));
    std::uint64_t seq = 0;
    const std::vector<router::Flit> want =
        referenceFlitize(message(5), 0, seq);
    for (std::size_t i = 0; i < tap.flits.size(); ++i) {
        EXPECT_EQ(tap.flits[i].index, static_cast<int>(i));
        EXPECT_EQ(tap.vcs[i], 0);
        router::Flit expected = want[i];
        expected.networkEnterTime = tap.times[i];
        expectSameFlit(tap.flits[i], expected);
    }
}

TEST_F(NetworkInterfaceTest, MessageSeqMustFitTheFlitField)
{
    const MessageSeq largest = std::numeric_limits<std::int32_t>::max();
    ni->injectMessage(message(2, 0, largest));
    simulator.runToCompletion();
    ASSERT_EQ(tap.flits.size(), 2u);
    EXPECT_EQ(tap.flits[0].message, largest);

    EXPECT_EXIT(ni->injectMessage(message(2, 0, largest + 1)),
                testing::ExitedWithCode(1),
                "message sequence number 2147483648 does not fit");
}

/**
 * Seeded differential run: random messages (mixed lanes, real-time
 * and saturating best-effort Vticks, back-to-back injections on one
 * lane) go through the NI while a sink returns each credit after a
 * random delay, so launches stall mid-message. Every flit the NI puts
 * on the link must equal the reference flitizer's, in lane order.
 * Stores in @p launch_order an FNV-1a hash of the interleaved (lane,
 * arrivalSeq) launch order, which pins the injection mux's choice on
 * every cycle.
 */
void
checkAgainstReference(std::uint64_t seed, bool stalls,
                      std::uint64_t* launch_order = nullptr)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed << " stalls "
                                    << stalls);
    constexpr int kLanes = 4;
    constexpr int kDepth = 3;
    Simulator simulator;
    config::RouterConfig cfg;
    cfg.numVcs = kLanes;
    MetricsHub metrics;
    router::Link link(simulator, 0, "inj");
    router::Link ejection(simulator, 0, "ej");
    NetworkInterface ni(simulator, NodeId(1), cfg, metrics, "ni1");
    Rng rng(seed);

    /** Records each flit and hands its credit back later. */
    class CreditingTap final : public router::FlitReceiver
    {
      public:
        CreditingTap(Simulator& simulator, router::Link& link, Rng& rng,
                     bool stalls)
            : simulator_(simulator), link_(link), rng_(rng),
              stalls_(stalls)
        {
        }

        void
        receiveFlit(int, const router::Flit& flit, int vc) override
        {
            EXPECT_EQ(flit.networkEnterTime, simulator_.now());
            got.push_back({flit, vc});
            if (!stalls_) {
                link_.sendCredit(vc);
                return;
            }
            // The last credit went out with a flit that is not its
            // message's tail: the NI stalls mid-message.
            int& held = outstanding_[static_cast<std::size_t>(vc)];
            if (++held == kDepth && !flit.isTail())
                ++midMessageStalls;
            // Mostly short delays, sometimes a long one: launches
            // run dry mid-message, then resume.
            const Tick delay = (rng_.uniformInt(8) == 0 ? 40 : 1)
                * static_cast<Tick>(rng_.uniformInt(4))
                * microseconds(1);
            credits_.push_back(std::make_unique<CallbackEvent>([this, vc] {
                --outstanding_[static_cast<std::size_t>(vc)];
                link_.sendCredit(vc);
            }));
            simulator_.schedule(*credits_.back(),
                                simulator_.now() + delay);
        }

        struct Sent
        {
            router::Flit flit;
            int vc;
        };
        std::vector<Sent> got;
        int midMessageStalls = 0;

      private:
        Simulator& simulator_;
        router::Link& link_;
        Rng& rng_;
        bool stalls_;
        std::deque<std::unique_ptr<CallbackEvent>> credits_;
        int outstanding_[kLanes] = {};
    };

    CreditingTap tap(simulator, link, rng, stalls);
    link.connectReceiver(&tap);
    ni.connectInjectionLink(link, stalls ? kDepth : 1 << 20);
    ejection.connectReceiver(&ni);

    std::vector<std::vector<router::Flit>> want(kLanes);
    std::uint64_t next_seq = 0;
    std::vector<std::unique_ptr<CallbackEvent>> injections;
    Tick now = 0;
    int total = 0;
    int back_to_back = 0; // Same tick and lane as the previous message.
    int last_lane = -1;
    for (int m = 0; m < 80; ++m) {
        // A third of the messages share their predecessor's tick
        // (back to back, often on the same lane).
        const bool same_tick = m > 0 && rng.uniformInt(3) == 0;
        if (!same_tick)
            now += static_cast<Tick>(rng.uniformInt(30)) * microseconds(1);
        traffic::MessageDesc desc;
        desc.stream = StreamId(static_cast<std::int32_t>(m % 5));
        desc.dest = NodeId(5);
        desc.vcLane = static_cast<int>(rng.uniformInt(kLanes));
        back_to_back += same_tick && desc.vcLane == last_lane;
        last_lane = desc.vcLane;
        desc.seq = m;
        desc.frame = m / 3;
        desc.numFlits = 2 + static_cast<int>(rng.uniformInt(9));
        desc.endOfFrame = rng.uniformInt(2) == 0;
        switch (rng.uniformInt(3)) {
        case 0:
            desc.cls = router::TrafficClass::BestEffort;
            desc.vtick = router::kBestEffortVtick;
            break;
        case 1:
            // A real-time Vtick large enough to saturate auxVC after
            // a couple of flits.
            desc.cls = router::TrafficClass::Cbr;
            desc.vtick = router::kBestEffortVtick / 3;
            break;
        default:
            desc.cls = router::TrafficClass::Vbr;
            desc.vtick = static_cast<Tick>(1 + rng.uniformInt(20))
                * microseconds(1);
            break;
        }
        const std::vector<router::Flit> flits =
            referenceFlitize(desc, now, next_seq);
        auto& lane = want[static_cast<std::size_t>(desc.vcLane)];
        lane.insert(lane.end(), flits.begin(), flits.end());
        total += desc.numFlits;
        injections.push_back(std::make_unique<CallbackEvent>(
            [&ni, desc] { ni.injectMessage(desc); }));
        simulator.schedule(*injections.back(), now);
    }
    simulator.runToCompletion();

    EXPECT_GT(back_to_back, 0);
    ASSERT_EQ(tap.got.size(), static_cast<std::size_t>(total));
    EXPECT_EQ(ni.flitsInjected(), static_cast<std::uint64_t>(total));
    EXPECT_EQ(ni.backlogFlits(), 0u);
    std::vector<std::size_t> next(kLanes, 0);
    std::uint64_t last_seq = 0;
    std::uint64_t order_hash = 0xcbf29ce484222325ULL;
    const auto mix = [&order_hash](std::uint64_t x) {
        order_hash = (order_hash ^ x) * 0x100000001b3ULL;
    };
    for (std::size_t i = 0; i < tap.got.size(); ++i) {
        const auto& [flit, vc] = tap.got[i];
        mix(static_cast<std::uint64_t>(vc));
        mix(flit.arrivalSeq);
        ASSERT_GE(vc, 0);
        ASSERT_LT(vc, kLanes);
        auto& lane = want[static_cast<std::size_t>(vc)];
        std::size_t& k = next[static_cast<std::size_t>(vc)];
        ASSERT_LT(k, lane.size());
        router::Flit expected = lane[k++];
        expected.networkEnterTime = flit.networkEnterTime;
        expectSameFlit(flit, expected);

        // FIFO with free credits launches the oldest queued flit
        // each cycle, so the whole stream leaves in arrival order.
        if (!stalls) {
            if (i > 0) {
                EXPECT_GT(flit.arrivalSeq, last_seq);
            }
            last_seq = flit.arrivalSeq;
        }
    }
    if (stalls) {
        EXPECT_GT(tap.midMessageStalls, 0);
    }
    if (launch_order != nullptr)
        *launch_order = order_hash;
}

TEST_F(NetworkInterfaceTest, FlitsMatchTheEagerReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        checkAgainstReference(seed, /*stalls=*/true);
        checkAgainstReference(seed, /*stalls=*/false);
    }
}

/**
 * Golden of the injection mux's launch order under its one
 * discipline, FIFO: which lane wins each cycle, and which flit it
 * sends. The hashes are the FIFO row captured when the discipline was
 * still configurable; any change to the pick kernel or the
 * eligibility refreshes shows here.
 */
TEST_F(NetworkInterfaceTest, LaunchOrderGoldenPerScheduler)
{
    std::uint64_t stalling = 0;
    std::uint64_t free_flowing = 0;
    checkAgainstReference(7, /*stalls=*/true, &stalling);
    checkAgainstReference(7, /*stalls=*/false, &free_flowing);
    EXPECT_EQ(stalling, 1164099406795714709ULL);
    EXPECT_EQ(free_flowing, 8957626343272768085ULL);
}

TEST_F(NetworkInterfaceTest, PacesAtOneFlitPerCycle)
{
    ni->injectMessage(message(4));
    simulator.runToCompletion();

    ASSERT_EQ(tap.times.size(), 4u);
    for (std::size_t i = 1; i < tap.times.size(); ++i)
        EXPECT_EQ(tap.times[i] - tap.times[i - 1], cfg.cycleTime());
}

TEST_F(NetworkInterfaceTest, RespectsCreditsThenResumes)
{
    ni->injectMessage(message(6));
    simulator.runToCompletion();
    EXPECT_EQ(tap.flits.size(), 4u); // depth-limited
    EXPECT_EQ(ni->backlogFlits(), 2u);

    CallbackEvent credits([&] {
        ni->creditReturned(0, 0);
        ni->creditReturned(0, 0);
    });
    simulator.schedule(credits, simulator.now() + microseconds(1));
    simulator.runToCompletion();
    EXPECT_EQ(tap.flits.size(), 6u);
    EXPECT_TRUE(tap.flits.back().isTail());
    EXPECT_EQ(ni->backlogFlits(), 0u);
    EXPECT_EQ(ni->flitsInjected(), 6u);
}

TEST_F(NetworkInterfaceTest, TailCarriesEndOfFrameOnlyWhenFlagged)
{
    traffic::MessageDesc desc = message(3);
    desc.endOfFrame = true;
    ni->injectMessage(desc);
    simulator.runToCompletion();
    ASSERT_EQ(tap.flits.size(), 3u);
    EXPECT_FALSE(tap.flits[0].endOfFrame);
    EXPECT_FALSE(tap.flits[1].endOfFrame);
    EXPECT_TRUE(tap.flits[2].endOfFrame);
}

TEST_F(NetworkInterfaceTest, LanesDrainIndependently)
{
    ni->injectMessage(message(3, /*lane=*/0));
    ni->injectMessage(message(3, /*lane=*/2, /*seq=*/1));
    simulator.runToCompletion();

    ASSERT_EQ(tap.flits.size(), 6u);
    int lane0 = 0;
    int lane2 = 0;
    for (int vc : tap.vcs) {
        lane0 += vc == 0;
        lane2 += vc == 2;
    }
    EXPECT_EQ(lane0, 3);
    EXPECT_EQ(lane2, 3);
}

TEST_F(NetworkInterfaceTest, SinkReportsFrameDelivery)
{
    metrics.enable(0);
    router::Flit tail;
    tail.type = router::FlitType::Tail;
    tail.cls = router::TrafficClass::Vbr;
    tail.stream = StreamId(3);
    tail.endOfFrame = true;
    tail.injectTime = 0;

    ni->receiveFlit(0, tail, 0);
    EXPECT_EQ(metrics.frames().framesDelivered(), 1u);
    EXPECT_EQ(metrics.rtMessages(), 1u);
    EXPECT_EQ(metrics.flitsDelivered(), 1u);
}

TEST_F(NetworkInterfaceTest, SinkReportsBestEffortLatency)
{
    metrics.enable(0);
    router::Flit tail;
    tail.type = router::FlitType::Tail;
    tail.cls = router::TrafficClass::BestEffort;
    tail.stream = StreamId(9);
    tail.injectTime = 0;
    tail.networkEnterTime = 0;

    CallbackEvent deliver([&] { ni->receiveFlit(0, tail, 1); });
    simulator.schedule(deliver, microseconds(42));
    simulator.runToCompletion();

    EXPECT_EQ(metrics.beMessages(), 1u);
    EXPECT_DOUBLE_EQ(metrics.beLatency().mean(), 42.0);
}

TEST_F(NetworkInterfaceTest, BodyFlitsDoNotCountAsMessages)
{
    metrics.enable(0);
    router::Flit body;
    body.type = router::FlitType::Body;
    body.cls = router::TrafficClass::Vbr;
    ni->receiveFlit(0, body, 0);
    EXPECT_EQ(metrics.rtMessages(), 0u);
    EXPECT_EQ(metrics.flitsDelivered(), 1u);
}

TEST_F(NetworkInterfaceTest, LatencyHistogramTracksDeliveries)
{
    metrics.enable(0);
    router::Flit tail;
    tail.type = router::FlitType::Tail;
    tail.cls = router::TrafficClass::BestEffort;
    tail.injectTime = 0;
    tail.networkEnterTime = 0;

    CallbackEvent first([&] { ni->receiveFlit(0, tail, 0); });
    CallbackEvent second([&] { ni->receiveFlit(0, tail, 0); });
    simulator.schedule(first, microseconds(10));
    simulator.schedule(second, microseconds(30));
    simulator.runToCompletion();

    const auto& histogram = metrics.beLatencyHistogram();
    EXPECT_EQ(histogram.count(), 2u);
    EXPECT_NEAR(histogram.quantile(0.99), 30.0, 11.0);
    EXPECT_DOUBLE_EQ(histogram.summary().min(), 10.0);
}

TEST_F(NetworkInterfaceTest, MetricsHubFiltersWarmupMessages)
{
    metrics.enable(microseconds(100));
    router::Flit tail;
    tail.type = router::FlitType::Tail;
    tail.cls = router::TrafficClass::BestEffort;
    tail.injectTime = microseconds(50); // injected before enable
    tail.networkEnterTime = microseconds(50);
    ni->receiveFlit(0, tail, 0);
    EXPECT_EQ(metrics.beMessages(), 1u);
    EXPECT_EQ(metrics.beLatency().count(), 0u)
        << "warmup message contaminated the measurement";
}

} // namespace
