#include "pcs/pcs_config.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::pcs {

sim::Tick
PcsConfig::cycleTime() const
{
    return sim::serializationTime(flitSizeBits, linkBandwidthMbps);
}

double
PcsConfig::flitsPerSecond() const
{
    return static_cast<double>(linkBandwidthMbps) * 1e6
        / static_cast<double>(flitSizeBits);
}

void
PcsConfig::validate() const
{
    using sim::fatal;
    if (numPorts < 2 || numPorts > 64)
        fatal("PcsConfig: numPorts %d out of range [2,64]", numPorts);
    if (numVcs < 1 || numVcs > config::kMaxVcs)
        fatal("PcsConfig: numVcs %d out of range [1,%d]", numVcs,
              config::kMaxVcs);
    if (flitBufferDepth < 1)
        fatal("PcsConfig: flitBufferDepth must be >= 1");
    if (flitSizeBits < 1 || linkBandwidthMbps < 1)
        fatal("PcsConfig: invalid link parameters");
    if (pathCycles < 0)
        fatal("PcsConfig: pathCycles must be >= 0");
    if (maxAttemptsPerConnection < 1)
        fatal("PcsConfig: maxAttemptsPerConnection must be >= 1");
}

std::string
PcsConfig::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%dx%d PCS switch, %d VCs/PC, %d Mbps, %s link "
                  "scheduler",
                  numPorts, numPorts, numVcs, linkBandwidthMbps,
                  config::toString(linkScheduler));
    return buf;
}

} // namespace mediaworm::pcs
