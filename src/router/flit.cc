#include "router/flit.hh"

#include "sim/logging.hh"

namespace mediaworm::router {

const char*
toString(TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::Cbr:
        return "CBR";
      case TrafficClass::Vbr:
        return "VBR";
      case TrafficClass::BestEffort:
        return "best-effort";
    }
    return "?";
}

std::int32_t
checkedMessageSeq(sim::MessageSeq seq)
{
    if (seq < 0 || seq > std::numeric_limits<std::int32_t>::max()) {
        sim::fatal("message sequence number %lld does not fit the "
                   "flit's 32-bit message field",
                   static_cast<long long>(seq));
    }
    return static_cast<std::int32_t>(seq);
}

} // namespace mediaworm::router
