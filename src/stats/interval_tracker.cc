#include "stats/interval_tracker.hh"

namespace mediaworm::stats {

void
IntervalTracker::recordDelivery(sim::StreamId stream, sim::Tick now)
{
    ++framesDelivered_;
    const auto it = lastDelivery_.find(stream);
    if (it != lastDelivery_.end()) {
        if (enabled_)
            intervals_.add(static_cast<double>(now - it->second));
        it->second = now;
    } else {
        lastDelivery_.emplace(stream, now);
    }
}

void
IntervalTracker::mergeFrom(const IntervalTracker& other)
{
    intervals_.merge(other.intervals_);
    framesDelivered_ += other.framesDelivered_;
}

double
IntervalTracker::meanIntervalMs() const
{
    return intervals_.mean() / static_cast<double>(sim::kMillisecond);
}

double
IntervalTracker::stddevIntervalMs() const
{
    return intervals_.stddev() / static_cast<double>(sim::kMillisecond);
}

} // namespace mediaworm::stats
