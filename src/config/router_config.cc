#include "config/router_config.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::config {

const char*
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return "fifo";
      case SchedulerKind::RoundRobin:
        return "round-robin";
      case SchedulerKind::VirtualClock:
        return "virtual-clock";
      case SchedulerKind::WeightedRoundRobin:
        return "weighted-rr";
    }
    return "?";
}

const char*
toString(CrossbarKind kind)
{
    switch (kind) {
      case CrossbarKind::Multiplexed:
        return "multiplexed";
      case CrossbarKind::Full:
        return "full";
    }
    return "?";
}

const char*
toString(SwitchingKind kind)
{
    switch (kind) {
      case SwitchingKind::Wormhole:
        return "wormhole";
      case SwitchingKind::VirtualCutThrough:
        return "virtual-cut-through";
    }
    return "?";
}

sim::Tick
RouterConfig::cycleTime() const
{
    return sim::serializationTime(flitSizeBits, linkBandwidthMbps);
}

double
RouterConfig::flitsPerSecond() const
{
    return static_cast<double>(linkBandwidthMbps) * 1e6
        / static_cast<double>(flitSizeBits);
}

void
RouterConfig::validate() const
{
    using sim::fatal;
    if (numPorts < 1 || numPorts > 64)
        fatal("RouterConfig: numPorts %d out of range [1,64]", numPorts);
    // The paper's sweeps top out at 24 VCs.
    if (numVcs < 1 || numVcs > kMaxVcs)
        fatal("RouterConfig: numVcs %d out of range [1,%d]", numVcs,
              kMaxVcs);
    if (flitBufferDepth < 1)
        fatal("RouterConfig: flitBufferDepth %d must be >= 1",
              flitBufferDepth);
    if (flitSizeBits < 1)
        fatal("RouterConfig: flitSizeBits %d must be >= 1", flitSizeBits);
    if (linkBandwidthMbps < 1)
        fatal("RouterConfig: linkBandwidthMbps %d must be >= 1",
              linkBandwidthMbps);
}

std::string
RouterConfig::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%dx%d switch, %d VCs/PC, %d-flit buffers, %d Mbps, "
                  "%s crossbar, %s scheduler",
                  numPorts, numPorts, numVcs, flitBufferDepth,
                  linkBandwidthMbps, toString(crossbar),
                  toString(scheduler));
    return buf;
}

} // namespace mediaworm::config
