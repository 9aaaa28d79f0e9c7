/**
 * @file
 * Flit-level event tracing.
 *
 * A Tracer is an optional ring buffer of timestamped flit lifecycle
 * records that the network components fill when one is attached. It
 * answers the questions simulator users actually ask: where did this
 * message spend its time, in what order did its flits move, and
 * which hop blocked it. The ring bounds the volume: it keeps the
 * newest records of every stream.
 */

#ifndef MEDIAWORM_SIM_TRACER_HH
#define MEDIAWORM_SIM_TRACER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/ids.hh"
#include "sim/ring.hh"
#include "sim/time.hh"

namespace mediaworm::sim {

/** Lifecycle points a flit passes. */
enum class TracePoint : std::uint8_t {
    HostInject,   ///< Message queued at the source NI.
    NetworkLaunch,///< Flit left the NI onto the injection link.
    RouterArrive, ///< Flit entered a router input VC.
    RouterDepart, ///< Flit left a router's VC output multiplexer.
    Eject,        ///< Flit consumed by the destination NI.
    CreditReturn, ///< Credit came back to a router output VC (no
                  ///< flit; stream/message fields are invalid).
};

/** Returns a stable display name for a trace point. */
const char* toString(TracePoint point);

/** One trace entry. */
struct TraceRecord
{
    Tick when = 0;
    TracePoint point = TracePoint::HostInject;
    StreamId stream;
    MessageSeq message = 0;
    std::int32_t flitIndex = 0;
    /** Component id: node for NI points, switch for router points. */
    std::int32_t location = -1;
    std::int32_t port = -1; ///< Router port, where meaningful.
    std::int32_t vc = -1;   ///< VC lane at the point.
};

/** Bounded ring of TraceRecords. */
class Tracer
{
  public:
    /** @param capacity Records retained (oldest evicted first). */
    explicit Tracer(std::size_t capacity = 65536);

    /** Appends a record (evicting the oldest when full). */
    void record(const TraceRecord& entry);

    /** Records retained (min of capacity and total recorded). */
    std::size_t size() const { return ring_.size(); }

    /** Total records ever accepted, including evicted ones. */
    std::uint64_t totalRecorded() const { return totalRecorded_; }

    /** Visits retained records oldest-first. */
    void forEach(
        const std::function<void(const TraceRecord&)>& visit) const;

    /**
     * Renders retained records, one line each.
     * @param tail Render only the newest @p tail records (0 = all).
     */
    std::string toString(std::size_t tail = 0) const;

    /** Drops all retained records. */
    void clear() { ring_.clear(); }

  private:
    /** Never grows: record() evicts before the ring fills past its
     *  initial capacity. */
    Ring<TraceRecord> ring_;
    std::uint64_t totalRecorded_ = 0;
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_TRACER_HH
