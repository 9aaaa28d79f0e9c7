#include "obs/flight_recorder.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace mediaworm::obs {

FlightRecorder::~FlightRecorder()
{
    if (!armed_)
        return;
    void* context = nullptr;
    if (sim::crashHook(&context) == &FlightRecorder::crashDump
        && context == this)
        sim::setCrashHook(nullptr, nullptr);
}

void
FlightRecorder::arm()
{
    sim::setCrashHook(&FlightRecorder::crashDump, this);
    armed_ = true;
}

std::string
FlightRecorder::dump() const
{
    const std::size_t shown =
        ring_.size() < kDumpTail ? ring_.size() : kDumpTail;
    char header[128];
    std::snprintf(header, sizeof(header),
                  "flight recorder: last %zu of %llu events "
                  "(oldest first)\n",
                  shown,
                  static_cast<unsigned long long>(
                      ring_.totalRecorded()));
    return header + ring_.toString(kDumpTail);
}

void
FlightRecorder::crashDump(void* context)
{
    const auto* recorder = static_cast<const FlightRecorder*>(context);
    std::fputs(recorder->dump().c_str(), stderr);
    std::fflush(stderr);
}

} // namespace mediaworm::obs
