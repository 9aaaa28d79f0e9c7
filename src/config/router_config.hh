/**
 * @file
 * Router hardware configuration (the paper's Table 1 knobs).
 */

#ifndef MEDIAWORM_CONFIG_ROUTER_CONFIG_HH
#define MEDIAWORM_CONFIG_ROUTER_CONFIG_HH

#include <string>

#include "sim/time.hh"

namespace mediaworm::config {

/**
 * Candidate output ports one route-table entry holds
 * (router::RouteCandidates). NetworkConfig::validate() bounds the
 * Clos spine count and the fat-mesh fat factor by it.
 */
inline constexpr int kMaxRouteCandidates = 4;

/**
 * Virtual channels one physical channel may carry: the width of the
 * 64-bit eligibility masks every multiplexer arbitrates over
 * (router/arbiter.hh). RouterConfig and PcsConfig validate numVcs
 * against it.
 */
inline constexpr int kMaxVcs = 64;

/** Which resource-scheduling discipline a multiplexer uses. */
enum class SchedulerKind {
    Fifo,             ///< Oldest flit first (conventional router).
    RoundRobin,       ///< Rotating priority among VCs.
    VirtualClock,     ///< Rate-based Virtual Clock (the MediaWorm change).
    WeightedRoundRobin, ///< Deficit round-robin weighted by stream rate.
};

/** Crossbar organisations considered in Section 3.2 of the paper. */
enum class CrossbarKind {
    Multiplexed, ///< n x n crossbar; VCs share a port via a multiplexer.
    Full,        ///< (n*m) x (n*m) crossbar; one port per VC.
};

/**
 * Cut-through switching disciplines (Section 1 / related work). The
 * paper's MediaWorm is a wormhole router; virtual cut-through is the
 * alternative used by Mercury, S-Connect and the hybrid multimedia
 * routers it compares against.
 */
enum class SwitchingKind {
    /** Flits follow the header immediately; a blocked message
     *  stretches across links, holding them (hold-and-wait). */
    Wormhole,
    /** A message advances only when the next hop can buffer it
     *  entirely, so blocked messages park in one node and never
     *  hold upstream links. Requires messages to fit the per-VC
     *  flit buffers. */
    VirtualCutThrough,
};

/** Returns a stable display name for a scheduler kind. */
const char* toString(SchedulerKind kind);

/** Returns a stable display name for a crossbar kind. */
const char* toString(CrossbarKind kind);

/** Returns a stable display name for a switching kind. */
const char* toString(SwitchingKind kind);

// The paper's Table 1 five-stage PROUD pipeline and its link, in
// router cycles.
/** Stages 1-3 traversed by a header before switch allocation. */
inline constexpr int kHeaderPipelineCycles = 3;
/** Stage-4 crossbar traversal latency. */
inline constexpr int kCrossbarCycles = 1;
/** Stage-5 output buffering/sync latency. */
inline constexpr int kOutputCycles = 1;
/** Link propagation delay between routers/NIs. */
inline constexpr int kLinkDelayCycles = 1;

/**
 * Static configuration of one wormhole router.
 *
 * Defaults reproduce the paper's Table 1: an 8-port switch with
 * 32-bit flits, 20-flit messages and buffers, 400 Mbps links and a
 * variable number of VCs (16 by default).
 */
struct RouterConfig
{
    int numPorts = 8;          ///< Physical channels (n), at most 64.
    int numVcs = 16;           ///< Virtual channels per PC (m), at most kMaxVcs.
    int flitBufferDepth = 20;  ///< Flit buffer capacity per VC.
    int flitSizeBits = 32;     ///< Flit width.
    int linkBandwidthMbps = 400; ///< PC bandwidth.

    CrossbarKind crossbar = CrossbarKind::Multiplexed;
    SwitchingKind switching = SwitchingKind::Wormhole;
    /** Discipline at the router's contention point (A for
     *  multiplexed crossbars, C for full crossbars). */
    SchedulerKind scheduler = SchedulerKind::VirtualClock;

    /**
     * Router cycle time: the serialization time of one flit on the
     * physical channel (80 ns at 400 Mbps with 32-bit flits).
     */
    sim::Tick cycleTime() const;

    /** Link payload bandwidth in flits per second. */
    double flitsPerSecond() const;

    /** Aborts via fatal() if any parameter is out of range. */
    void validate() const;

    /** One-line summary for logs and reports. */
    std::string describe() const;
};

} // namespace mediaworm::config

#endif // MEDIAWORM_CONFIG_ROUTER_CONFIG_HH
