#include "traffic/frame_source.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace mediaworm::traffic {

namespace {

/**
 * MPEG group-of-pictures size multipliers for a 12-frame
 * IBBPBBPBBPBB pattern, normalised to mean 1.0. I frames are large,
 * P frames medium, B frames small; used by the MpegGop extension.
 */
constexpr double kGopPattern[12] = {
    2.4, 0.6, 0.6, 1.2, 0.6, 0.6, 1.2, 0.6, 0.6, 1.2, 0.6, 0.6,
};
constexpr int kGopLength = 12;

} // namespace

FrameSource::FrameSource(sim::Simulator& simulator, const Stream& stream,
                         const config::TrafficConfig& cfg,
                         int flit_size_bits, Injector& injector,
                         sim::Rng rng)
    : simulator_(simulator), stream_(stream), injector_(injector),
      rng_(rng), flitBytes_(flit_size_bits / 8),
      messageFlits_(cfg.messageFlits),
      totalFrames_(cfg.warmupFrames + cfg.measuredFrames),
      event_(this, "FrameSource")
{
    MW_ASSERT(flit_size_bits % 8 == 0);
    // The header flit carries routing/Vtick information, not payload
    // (its overhead is what Section 5.5 quantifies).
    payloadBytesPerMessage_ = (messageFlits_ - 1) * flitBytes_;

    const int nominal_messages = std::max(
        1, static_cast<int>(std::ceil(
               cfg.frameBytesMean
               / static_cast<double>(payloadBytesPerMessage_))));
    nominalGap_ = stream_.frameInterval
        / static_cast<sim::Tick>(nominal_messages);

    // Keep pathological tail draws out of the distribution; when a
    // message carries more payload than a mean frame (whole-frame
    // messages), fall back to half the mean as the floor.
    const double floor_bytes =
        std::min(static_cast<double>(payloadBytesPerMessage_),
                 cfg.frameBytesMean * 0.5);
    switch (cfg.realTimeKind) {
      case config::RealTimeKind::Cbr:
        frameBytes_ = std::make_unique<sim::ConstantDistribution>(
            cfg.frameBytesMean);
        break;
      case config::RealTimeKind::Vbr:
        frameBytes_ = std::make_unique<sim::TruncatedNormalDistribution>(
            cfg.frameBytesMean, cfg.frameBytesStddev, floor_bytes);
        break;
      case config::RealTimeKind::MpegGop:
        // Base size scaled per GoP position; add VBR noise on top.
        frameBytes_ = std::make_unique<sim::TruncatedNormalDistribution>(
            cfg.frameBytesMean, cfg.frameBytesStddev / 2.0,
            floor_bytes);
        gopMode_ = true;
        break;
    }
}

void
FrameSource::start()
{
    frame_ = 0;
    frameStart_ = simulator_.now() + stream_.startOffset;
    beginFrame();
}

double
FrameSource::sampleFrameBytes()
{
    double bytes = frameBytes_->sample(rng_);
    if (gopMode_) {
        bytes *= kGopPattern[gopPosition_];
        gopPosition_ = (gopPosition_ + 1) % kGopLength;
    }
    return bytes;
}

void
FrameSource::beginFrame()
{
    const double bytes = sampleFrameBytes();
    messagesThisFrame_ = std::max(
        1, static_cast<int>(std::ceil(
               bytes / static_cast<double>(payloadBytesPerMessage_))));
    const double last_payload = bytes
        - static_cast<double>(messagesThisFrame_ - 1)
            * static_cast<double>(payloadBytesPerMessage_);
    // Header flit + payload flits, never fewer than header + tail.
    lastMessageFlits_ = std::max(
        2, 1 + static_cast<int>(std::ceil(
                   last_payload / static_cast<double>(flitBytes_))));
    messageIndex_ = 0;
    if (messagesThisFrame_ > 1) {
        // Spread messages so the frame's last message always lands
        // one nominal gap before the next frame start, decoupling
        // the frame-completion instant from the VBR message count.
        // Otherwise that instant wobbles with the count, a source
        // quantization artifact time-scale compression would inflate
        // ~1/timeScale in the normalised sigma_d; anchored, sigma_d
        // measures network jitter only.
        messageGap_ = (stream_.frameInterval - nominalGap_)
            / static_cast<sim::Tick>(messagesThisFrame_ - 1);
    } else {
        messageGap_ = stream_.frameInterval
            / static_cast<sim::Tick>(messagesThisFrame_);
    }
    simulator_.schedule(event_, frameStart_);
}

void
FrameSource::injectNextMessage()
{
    const bool last = messageIndex_ == messagesThisFrame_ - 1;

    MessageDesc desc;
    desc.stream = stream_.id;
    desc.dest = stream_.dst;
    desc.cls = stream_.cls;
    desc.vcLane = stream_.vcLane;
    desc.vtick = stream_.vtick;
    desc.seq = nextSeq_++;
    desc.frame = frame_;
    desc.numFlits = last ? lastMessageFlits_ : messageFlits_;
    desc.endOfFrame = last;
    injector_.injectMessage(desc);

    ++messageIndex_;
    if (!last) {
        simulator_.schedule(event_,
                            frameStart_
                                + static_cast<sim::Tick>(messageIndex_)
                                    * messageGap_);
        return;
    }
    ++frame_;
    if (frame_ < totalFrames_) {
        frameStart_ += stream_.frameInterval;
        beginFrame();
    }
}

} // namespace mediaworm::traffic
