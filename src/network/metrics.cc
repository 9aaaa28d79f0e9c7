#include "network/metrics.hh"

namespace mediaworm::network {

void
MetricsHub::growLanes(std::size_t count)
{
    while (lanes_.size() < count)
        lanes_.push_back(std::make_unique<MetricsLane>(this));
}

const stats::IntervalTracker&
MetricsHub::frames() const
{
    merged_.frames = stats::IntervalTracker();
    for (const auto& lane : lanes_)
        merged_.frames.mergeFrom(lane->frames_);
    return merged_.frames;
}

const stats::Accumulator&
MetricsHub::beLatency() const
{
    merged_.beLatency.reset();
    for (const auto& lane : lanes_)
        merged_.beLatency.merge(lane->beLatency_);
    return merged_.beLatency;
}

const stats::Accumulator&
MetricsHub::beNetworkLatency() const
{
    merged_.beNetworkLatency.reset();
    for (const auto& lane : lanes_)
        merged_.beNetworkLatency.merge(lane->beNetworkLatency_);
    return merged_.beNetworkLatency;
}

const stats::Histogram&
MetricsHub::beLatencyHistogram() const
{
    merged_.beLatencyHistogram.reset();
    for (const auto& lane : lanes_)
        merged_.beLatencyHistogram.merge(lane->beLatencyHistogram_);
    return merged_.beLatencyHistogram;
}

const stats::Accumulator&
MetricsHub::rtMessageLatency() const
{
    merged_.rtMessageLatency.reset();
    for (const auto& lane : lanes_)
        merged_.rtMessageLatency.merge(lane->rtMessageLatency_);
    return merged_.rtMessageLatency;
}

std::uint64_t
MetricsHub::beMessages() const
{
    std::uint64_t total = 0;
    for (const auto& lane : lanes_)
        total += lane->beMessages_;
    return total;
}

std::uint64_t
MetricsHub::rtMessages() const
{
    std::uint64_t total = 0;
    for (const auto& lane : lanes_)
        total += lane->rtMessages_;
    return total;
}

std::uint64_t
MetricsHub::flitsDelivered() const
{
    std::uint64_t total = 0;
    for (const auto& lane : lanes_)
        total += lane->flitsDelivered_;
    return total;
}

} // namespace mediaworm::network
