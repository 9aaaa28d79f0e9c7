#include "sim/tracer.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::sim {

const char*
toString(TracePoint point)
{
    switch (point) {
      case TracePoint::HostInject:
        return "host-inject";
      case TracePoint::NetworkLaunch:
        return "network-launch";
      case TracePoint::RouterArrive:
        return "router-arrive";
      case TracePoint::RouterDepart:
        return "router-depart";
      case TracePoint::Eject:
        return "eject";
      case TracePoint::CreditReturn:
        return "credit-return";
    }
    return "?";
}

Tracer::Tracer(std::size_t capacity) : ring_(capacity)
{
    MW_ASSERT(capacity > 0);
}

void
Tracer::record(const TraceRecord& entry)
{
    if (ring_.size() == ring_.capacity())
        ring_.pop_front();
    ring_.push_back(entry);
    ++totalRecorded_;
}

void
Tracer::forEach(
    const std::function<void(const TraceRecord&)>& visit) const
{
    for (std::size_t i = 0; i < ring_.size(); ++i)
        visit(ring_[i]);
}

std::string
Tracer::toString(std::size_t tail) const
{
    std::string out;
    char line[160];
    std::size_t skip = (tail != 0 && ring_.size() > tail)
        ? ring_.size() - tail
        : 0;
    forEach([&](const TraceRecord& entry) {
        if (skip != 0) {
            --skip;
            return;
        }
        std::snprintf(line, sizeof(line),
                      "%14s  %-14s stream=%d msg=%lld flit=%d "
                      "at=%d port=%d vc=%d\n",
                      formatTime(entry.when).c_str(),
                      mediaworm::sim::toString(entry.point),
                      entry.stream.value(),
                      static_cast<long long>(entry.message),
                      entry.flitIndex, entry.location, entry.port,
                      entry.vc);
        out += line;
    });
    return out;
}

} // namespace mediaworm::sim
