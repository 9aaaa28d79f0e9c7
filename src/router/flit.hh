/**
 * @file
 * Flit and traffic-class definitions.
 *
 * A flit is a plain 64-byte value: it carries everything the routers
 * need so that the simulator's hot path never allocates. Header flits
 * carry the message's routing and bandwidth request (Vtick), exactly
 * as in the paper's router (Section 3.2). Every flit also repeats the
 * descriptor fields that stages read from whichever flit they hold
 * (stream, class, Vtick, inject time): the arbiters read them from
 * each head flit, the sink from the tail. The frame number stays at
 * the source; nothing downstream reads it.
 */

#ifndef MEDIAWORM_ROUTER_FLIT_HH
#define MEDIAWORM_ROUTER_FLIT_HH

#include <cstdint>
#include <limits>

#include "sim/ids.hh"
#include "sim/time.hh"

namespace mediaworm::router {

/** ATM Forum traffic classes the router differentiates. */
enum class TrafficClass : std::uint8_t {
    Cbr,        ///< Constant bit rate (uncompressed media).
    Vbr,        ///< Variable bit rate (compressed media).
    BestEffort, ///< Everything without real-time requirements.
};

/** True for CBR/VBR traffic that carries a bandwidth request. */
constexpr bool
isRealTime(TrafficClass cls)
{
    return cls != TrafficClass::BestEffort;
}

/** Returns a stable display name for a traffic class. */
const char* toString(TrafficClass cls);

/** Position of a flit within its message. */
enum class FlitType : std::uint8_t {
    Header, ///< First flit; triggers routing and VC allocation.
    Body,   ///< Middle flit; bypasses stages 2-3.
    Tail,   ///< Last flit; releases the held output VC.
};

/**
 * Vtick advertised by best-effort messages: "infinity" (maximum
 * slack, Section 3.3). Kept far from overflow so the Virtual Clock
 * arithmetic can still add it to the wall clock safely.
 */
constexpr sim::Tick kBestEffortVtick =
    std::numeric_limits<sim::Tick>::max() / 4;

/**
 * One flow-control unit. Fields are ordered by size so the struct
 * packs to one cache line; the link pipe entry (flit + VC + delivery
 * tick) is then 80 bytes.
 */
struct Flit
{
    sim::Tick vtick = kBestEffortVtick; ///< Requested service interval.
    sim::Tick injectTime = 0; ///< Message creation time at the source.
    sim::Tick networkEnterTime = 0; ///< When this flit left its NI.
    /** Virtual Clock timestamp; rewritten at each scheduling point. */
    sim::Tick stamp = 0;
    /** Arrival order at the current scheduling point (FIFO ties). */
    std::uint64_t arrivalSeq = 0;

    sim::StreamId stream;    ///< Owning stream (connection).
    sim::NodeId dest;        ///< Destination endpoint.
    /** Message number within the stream; the sources check that the
     *  descriptor's 64-bit sequence number fits (checkedMessageSeq). */
    std::int32_t message = 0;
    std::int32_t index = 0;  ///< Flit position within the message.
    std::int32_t messageFlits = 0; ///< Message length (header field).

    FlitType type = FlitType::Header;
    TrafficClass cls = TrafficClass::BestEffort;
    /** VC index the stream uses on each link (RouterConfig::numVcs
     *  is validated to at most 64). */
    std::uint8_t vcLane = 0;
    bool endOfFrame = false; ///< Tail of the frame's last message.

    /** True for the header flit. */
    bool isHeader() const { return type == FlitType::Header; }
    /** True for the tail flit. */
    bool isTail() const { return type == FlitType::Tail; }
};

static_assert(sizeof(Flit) == 64, "Flit must stay one cache line");

/**
 * Narrows a message descriptor's sequence number to the flit's 32-bit
 * field. Exits with a diagnostic (in every build) when it does not
 * fit, rather than letting traces silently wrap.
 */
std::int32_t checkedMessageSeq(sim::MessageSeq seq);

} // namespace mediaworm::router

#endif // MEDIAWORM_ROUTER_FLIT_HH
