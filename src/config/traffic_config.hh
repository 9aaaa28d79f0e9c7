/**
 * @file
 * Workload configuration (Section 4.2 of the paper).
 */

#ifndef MEDIAWORM_CONFIG_TRAFFIC_CONFIG_HH
#define MEDIAWORM_CONFIG_TRAFFIC_CONFIG_HH

#include <string>

#include "sim/time.hh"

namespace mediaworm::config {

/** Which real-time traffic model the RT component uses. */
enum class RealTimeKind {
    Vbr,     ///< Frame sizes ~ Normal(mean, stddev) (MPEG-2 like).
    Cbr,     ///< Constant frame sizes.
    MpegGop, ///< I/P/B group-of-pictures pattern (extension).
};

/** How real-time streams choose destinations and VC lanes. */
enum class StreamPlacement {
    /**
     * Rounds of random derangements: every node sources and sinks
     * exactly streamsPerNode streams, and lanes rotate per round, so
     * no output (port, VC) pair exceeds the paper's streams-per-VC
     * capacity. This realizes the admission-controlled operating
     * points the paper's jitter-free results assume.
     */
    Balanced,
    /**
     * Fully uniform random destination and lane per stream. sqrt(n)
     * hot-spot imbalance oversubscribes some ports at high load
     * (ablation of the admission-control assumption).
     */
    UniformRandom,
};

/** Returns a stable display name for a placement policy. */
const char* toString(StreamPlacement placement);

/** Returns a stable display name for a real-time traffic kind. */
const char* toString(RealTimeKind kind);

/**
 * Workload description for one experiment point.
 *
 * Defaults reproduce the paper's MPEG-2 stream model: frames of
 * Normal(16666 B, 3333 B) every 33 ms (4 Mbps per stream), broken
 * into 20-flit messages, mixed with 20-flit best-effort messages.
 */
struct TrafficConfig
{
    /** Offered load as a fraction of PC bandwidth (the x axis of
     *  most figures). */
    double inputLoad = 0.8;

    /** Real-time share of the load: x / (x + y) for an x:y mix. */
    double realTimeFraction = 0.8;

    RealTimeKind realTimeKind = RealTimeKind::Vbr;

    StreamPlacement streamPlacement = StreamPlacement::Balanced;

    double frameBytesMean = 16666.0;  ///< Mean MPEG-2 frame size.
    double frameBytesStddev = 3333.0; ///< VBR frame-size deviation.
    sim::Tick frameInterval = 33 * sim::kMillisecond; ///< 30 frames/s.

    int messageFlits = 20;   ///< RT message size in flits.
    int beMessageFlits = 20; ///< Best-effort message size in flits.

    /**
     * Scale on the Virtual Clock rate every stream reserves: the
     * advertised Vtick shrinks by this factor, so stamps advance
     * slower and the stream's lane is guaranteed factor x the mean
     * rate. 1.0 (the default, the paper's setting) reserves exactly
     * the mean rate; calculus::provision() raises it to buy delay
     * guarantees with envelope headroom.
     */
    double reservedRateFactor = 1.0;

    /**
     * Anchor the last message of every frame at a fixed offset
     * before the next frame, spreading the earlier messages evenly.
     * Without anchoring, the frame-completion instant wobbles with
     * the VBR message count (a source quantization artifact that
     * time-scale compression would exaggerate ~1/timeScale in the
     * normalised sigma_d); with it, sigma_d measures network jitter
     * only. Negligible at full MPEG-2 scale either way.
     */
    bool anchorFrameTail = true;

    /** Frames injected per stream before measurement starts. */
    int warmupFrames = 3;
    /** Frames injected per stream during measurement. */
    int measuredFrames = 12;

    /** Mean stream bandwidth in Mbps (4 Mbps at the defaults). */
    double streamRateMbps() const;

    /**
     * Vtick value (expected per-flit service interval) a stream of
     * this configuration advertises in its headers.
     */
    sim::Tick streamVtick(int flit_size_bits) const;

    /** Aborts via fatal() if any parameter is out of range. */
    void validate() const;

    /** One-line summary for logs and reports, without the input
     *  load: a sweep runs the same workload at several loads. */
    std::string describe() const;
};

} // namespace mediaworm::config

#endif // MEDIAWORM_CONFIG_TRAFFIC_CONFIG_HH
