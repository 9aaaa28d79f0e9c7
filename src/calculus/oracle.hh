/**
 * @file
 * The delay-bound oracle: per-stream worst-case end-to-end delay
 * bounds for a planned traffic mix, computed purely from the
 * configuration and the stream table (no simulation, no randomness).
 *
 * Model
 * -----
 * Every flow gets a leaky-bucket contract envelope at its source
 * (rtStreamEnvelope() below; best-effort nodes get one (sigma, rho)
 * pair-flow per destination). Every multiplexing point on a route
 * (route_model.hh) is a constant-rate server shared under the
 * configured discipline. The oracle runs two standard analyses:
 *
 *  - Total Flow Analysis (TFA) burstiness propagation: per-flow
 *    per-hop sojourn bounds are iterated in Jacobi passes so that a
 *    flow's envelope at hop k is inflated by rho x (delay bound over
 *    hops < k), until a pass changes nothing. Feed-forward routes
 *    (XY on a mesh) get there within max-route-length passes; routes
 *    with cycles (DOR rings on a torus) may converge slowly or not
 *    at all, and an iteration still moving at the pass cap reports
 *    every stream unbounded. Each point keeps its members'
 *    interference sums, so a pass costs O(sum of route lengths).
 *  - Separated Flow Analysis (SFA): with the propagated interference
 *    envelopes, each hop yields a rate-latency service curve for the
 *    target stream; the curves convolve along the route ("pay bursts
 *    only once") and the horizontal deviation against the source
 *    envelope is the end-to-end bound. The reported bound is
 *    min(SFA, sum of per-hop TFA sojourns) - both are valid.
 *
 * Per hop the oracle takes the better of two valid service curves:
 *
 *  - the blind-multiplexing residual (capacity minus all competing
 *    envelopes), valid for ANY work-conserving discipline; under
 *    Virtual Clock / WRR the saturated best-effort stamps give
 *    real-time strict priority, so best-effort cross traffic shrinks
 *    to a single non-preemptable blocking flit; and
 *  - the stamp-rate curve (Virtual Clock / WRR only): the per-lane
 *    Virtual Clock stamps advance by Vtick per flit, so when the
 *    stamp rates of the lanes present at the point fit the capacity,
 *    each lane is served at its stamp rate 1/Vtick and the lane's
 *    FIFO members share that rate-latency guarantee. This is the
 *    branch provisioning (provision.hh) strengthens by scaling
 *    Vtick with TrafficConfig::reservedRateFactor.
 *
 * Where the bound is conservative (and why that is safe) is
 * documented in DESIGN.md section 11. The one non-conservatism to be
 * aware of: VBR/GoP frame sizes are unbounded Normal draws, so the
 * envelope truncates at kBurstSigmas standard deviations - it is a
 * statistical contract, not an absolute one. A stream violating its
 * contract (a > 4 sigma frame) may exceed the bound; everything else
 * in the analysis is worst-case.
 *
 * A saturated point (competing rate >= capacity) yields an infinite
 * bound, reported as bounded = false: "no guarantee exists", the
 * analytic face of the paper's missed-deadline region.
 */

#ifndef MEDIAWORM_CALCULUS_ORACLE_HH
#define MEDIAWORM_CALCULUS_ORACLE_HH

#include <vector>

#include "calculus/curves.hh"
#include "config/network_config.hh"
#include "config/router_config.hh"
#include "config/traffic_config.hh"
#include "sim/ids.hh"
#include "traffic/stream.hh"

namespace mediaworm::calculus {

/** Analysis knobs. */
struct OracleConfig
{
    /** Master switch: when false, runExperiment() skips the oracle. */
    bool enabled = false;

    /**
     * Cap on the Jacobi passes of the TFA fixed-point iteration; 0
     * (default) selects kDefaultTfaPasses. Reaching the cap while
     * the iteration still moves reports every stream unbounded.
     */
    int tfaPasses = 0;
};

/**
 * Where the VBR/GoP frame-size envelope truncates the Normal
 * distribution, in standard deviations: the per-frame burst is sized
 * for mean + kBurstSigmas x stddev bytes.
 */
inline constexpr double kBurstSigmas = 4.0;

/** The default TFA pass cap (OracleConfig::tfaPasses = 0). */
inline constexpr int kDefaultTfaPasses = 256;

/** Source envelope and message geometry shared by every RT stream. */
struct StreamEnvelope
{
    ArrivalCurve curve;            ///< Contract (sigma, rho).
    double maxMessageFlits = 0.0;  ///< Largest single message.
    double meanRateFlitsPerUs = 0.0; ///< Mean (un-margined) rate.
};

/**
 * Builds the contract envelope of one real-time stream of
 * @p traffic: sigma covers the largest contract frame (mean +
 * kBurstSigmas x stddev bytes, all its messages back to back, header
 * overhead included), rho the mean
 * rate plus a margin: 0 for CBR, stddev/mean for VBR and GoP (the
 * GoP pattern itself needs no extra margin once the burst covers an
 * I frame).
 */
StreamEnvelope rtStreamEnvelope(const config::RouterConfig& router,
                                const config::TrafficConfig& traffic);

/** Analytic verdict for one admitted real-time stream. */
struct StreamBound
{
    sim::StreamId stream;
    sim::NodeId src;
    sim::NodeId dst;
    int hops = 1;            ///< Routers traversed.
    double sigmaFlits = 0.0; ///< Source envelope burst.
    double rhoFlitsPerUs = 0.0; ///< Source envelope rate.
    double reservedFlitsPerUs = 0.0; ///< Stamp rate 1/Vtick.
    double boundUs = kUnbounded; ///< Worst-case e2e message delay.
    bool bounded = false;    ///< False when boundUs is infinite.
};

/** Bounds for every real-time stream of one experiment point. */
struct BoundsReport
{
    std::vector<StreamBound> streams; ///< Sorted by stream id.
    int unboundedStreams = 0;  ///< Streams with no finite bound.
    double maxBoundUs = 0.0;   ///< Largest finite bound, 0 if none.
    int tfaPasses = 0;         ///< TFA passes run (0: none needed).
    /** False when the TFA iteration still moved at the pass cap; every
     *  stream is then reported unbounded. */
    bool tfaConverged = true;

    /** True when every stream has a finite bound. */
    bool allBounded() const { return unboundedStreams == 0; }

    /** Bound for @p id, nullptr when absent. */
    const StreamBound* find(sim::StreamId id) const;
};

/**
 * Computes per-stream worst-case delay bounds for the planned
 * workload.
 *
 * @param router  Router configuration (the experiment's, unscaled).
 * @param traffic Workload configuration AS RUN - i.e. after any
 *                timeScale compression runExperiment() applies.
 * @param net     Topology.
 * @param streams The planned real-time streams (MixPlan::streams).
 * @param oracle  Analysis knobs (the TFA pass cap).
 */
BoundsReport computeBounds(const config::RouterConfig& router,
                           const config::TrafficConfig& traffic,
                           const config::NetworkConfig& net,
                           const std::vector<traffic::Stream>& streams,
                           const OracleConfig& oracle = {});

} // namespace mediaworm::calculus

#endif // MEDIAWORM_CALCULUS_ORACLE_HH
