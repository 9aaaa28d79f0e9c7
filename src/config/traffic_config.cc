#include "config/traffic_config.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::config {

const char*
toString(RealTimeKind kind)
{
    switch (kind) {
      case RealTimeKind::Vbr:
        return "vbr";
      case RealTimeKind::Cbr:
        return "cbr";
      case RealTimeKind::MpegGop:
        return "mpeg-gop";
    }
    return "?";
}

const char*
toString(StreamPlacement placement)
{
    switch (placement) {
      case StreamPlacement::Balanced:
        return "balanced";
      case StreamPlacement::UniformRandom:
        return "uniform-random";
    }
    return "?";
}

TrafficConfig
TrafficConfig::scaled(double time_scale) const
{
    if (!(time_scale > 0.0 && time_scale <= 1.0))
        sim::fatal("TrafficConfig: timeScale %.3f out of (0,1]",
                   time_scale);
    TrafficConfig out = *this;
    out.frameBytesMean *= time_scale;
    out.frameBytesStddev *= time_scale;
    out.frameInterval = static_cast<sim::Tick>(
        static_cast<double>(frameInterval) * time_scale);
    return out;
}

double
TrafficConfig::streamRateMbps() const
{
    const double bits_per_frame = frameBytesMean * 8.0;
    const double frames_per_second = static_cast<double>(sim::kSecond)
        / static_cast<double>(frameInterval);
    return bits_per_frame * frames_per_second / 1e6;
}

sim::Tick
TrafficConfig::streamVtick(int flit_size_bits) const
{
    // Flits per second reserved by one stream (the mean demand times
    // the reservation factor); Vtick is its inverse.
    const double flits_per_second = reservedRateFactor
        * streamRateMbps() * 1e6 / static_cast<double>(flit_size_bits);
    return static_cast<sim::Tick>(
        std::llround(static_cast<double>(sim::kSecond)
                     / flits_per_second));
}

void
TrafficConfig::validate() const
{
    using sim::fatal;
    // Every range test is written so that NaN fails it.
    if (!(inputLoad >= 0.0 && inputLoad <= 1.5))
        fatal("TrafficConfig: inputLoad %.3f out of range [0,1.5]",
              inputLoad);
    if (!(realTimeFraction >= 0.0 && realTimeFraction <= 1.0))
        fatal("TrafficConfig: realTimeFraction %.3f out of range [0,1]",
              realTimeFraction);
    if (!(frameBytesMean > 0.0 && frameBytesStddev >= 0.0))
        fatal("TrafficConfig: invalid frame size parameters");
    if (frameInterval <= 0)
        fatal("TrafficConfig: frameInterval must be positive");
    if (messageFlits < 2 || beMessageFlits < 2)
        fatal("TrafficConfig: messages need at least 2 flits "
              "(header + tail)");
    if (!(reservedRateFactor >= 1.0 && reservedRateFactor <= 64.0))
        fatal("TrafficConfig: reservedRateFactor %.3f out of [1,64]",
              reservedRateFactor);
    if (warmupFrames < 0 || measuredFrames < 1)
        fatal("TrafficConfig: invalid warmup/measurement frame counts");
}

std::string
TrafficConfig::describe() const
{
    char buf[200];
    const double x = realTimeFraction * 100.0;
    std::snprintf(buf, sizeof(buf),
                  "mix=%.0f:%.0f rt=%s frame=%.0fB+-%.0fB/"
                  "%.0fms msg=%d flits",
                  x, 100.0 - x, toString(realTimeKind),
                  frameBytesMean, frameBytesStddev,
                  sim::toMilliseconds(frameInterval), messageFlits);
    return buf;
}

} // namespace mediaworm::config
