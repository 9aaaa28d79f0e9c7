/**
 * @file
 * Real-time (CBR/VBR/MPEG-GoP) frame stream source.
 *
 * Reproduces Section 4.2.1: a stream emits one video frame per frame
 * interval; VBR frame sizes come from Normal(16666 B, 3333 B), CBR
 * frames are constant. Each frame is broken into fixed-size messages
 * (except possibly the last), and the messages of a frame are
 * injected evenly across the frame interval (20-flit messages and
 * ~200 messages per frame give the paper's 165 us message spacing).
 */

#ifndef MEDIAWORM_TRAFFIC_FRAME_SOURCE_HH
#define MEDIAWORM_TRAFFIC_FRAME_SOURCE_HH

#include <memory>

#include "config/traffic_config.hh"
#include "sim/distributions.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "traffic/stream.hh"

namespace mediaworm::traffic {

/** Generates the frames of one real-time stream. */
class FrameSource
{
  public:
    /**
     * @param simulator Owning kernel.
     * @param stream Stream descriptor (route, lane, rate).
     * @param cfg Workload parameters (frame size model, counts).
     * @param flit_size_bits Flit width, to convert bytes to flits.
     * @param injector Local NI that accepts the messages.
     * @param rng Private random stream for frame sizes.
     */
    FrameSource(sim::Simulator& simulator, const Stream& stream,
                const config::TrafficConfig& cfg, int flit_size_bits,
                Injector& injector, sim::Rng rng);

    /** Schedules the first frame at the stream's start offset. */
    void start();

    /** Frames generated so far. */
    int framesGenerated() const { return frame_; }

    /** Total frames this source will generate. */
    int totalFrames() const { return totalFrames_; }

    /** Messages injected so far. */
    sim::MessageSeq messagesInjected() const { return nextSeq_; }

    /** The stream being generated. */
    const Stream& stream() const { return stream_; }

  private:
    void beginFrame();
    void injectNextMessage();

    /** Draws the next frame's payload size in bytes. */
    double sampleFrameBytes();

    sim::Simulator& simulator_;
    Stream stream_;
    Injector& injector_;
    sim::Rng rng_;
    std::unique_ptr<sim::Distribution> frameBytes_;

    int payloadBytesPerMessage_;
    int flitBytes_;
    int messageFlits_;
    int totalFrames_;
    sim::Tick nominalGap_ = 0; ///< Frame interval / nominal messages.

    // GoP pattern state (MpegGop kind only).
    bool gopMode_ = false;
    int gopPosition_ = 0;

    // Per-frame injection state.
    int frame_ = 0;
    int messagesThisFrame_ = 0;
    int messageIndex_ = 0;
    int lastMessageFlits_ = 0;
    sim::Tick frameStart_ = 0;
    sim::Tick messageGap_ = 0;
    sim::MessageSeq nextSeq_ = 0;

    sim::MemberFuncEvent<&FrameSource::injectNextMessage> event_;
};

} // namespace mediaworm::traffic

#endif // MEDIAWORM_TRAFFIC_FRAME_SOURCE_HH
