/**
 * @file
 * Inverse provisioning: choose VC counts and Virtual Clock stamp
 * rates so every admitted stream's analytic delay bound meets an SLA.
 *
 * The oracle (oracle.hh) maps an allocation to per-stream bounds;
 * this module inverts it by searching the two MediaWorm allocation
 * levers the paper studies:
 *
 *  - the VC count (RouterConfig::numVcs) - more lanes mean fewer
 *    streams share a lane FIFO, but each lane's stamp-rate share of
 *    the link shrinks, so neither direction is always better; and
 *  - the per-stream reserved rate (TrafficConfig::reservedRateFactor,
 *    which scales the advertised Vtick) - reserving above the mean
 *    rate turns the stamp-rate service curve into a real guarantee,
 *    at the cost of admission-budget headroom.
 *
 * The search tries VC counts {4, 8, 16, 32, 64}. For each it walks a
 * 25-point grid of reserved-rate factors from 1 up to the largest
 * factor whose summed lane stamp rates still fit in 95% of the link,
 * and keeps the least factor whose worst-case bound meets the SLA.
 * Among VC counts it returns the allocation with the least
 * reservation (ties broken by the tighter bound).
 *
 * On this grid the worst bound is non-increasing in the factor. A
 * larger reservation raises only the lanes' stamp rates (the arrival
 * envelopes do not depend on it), the cap keeps the summed stamp
 * rates inside the link so the stamp-rate curve never drops out, and
 * each hop takes the better of that curve and the blind residual.
 * So "meets the SLA" is monotone along the grid, and the least
 * meeting factor is found by bisection. The search evaluates
 * the largest factor first (a miss rules the VC count out in one
 * oracle run), then factor 1, then bisects between them: at most 7
 * oracle runs per VC count instead of 25. tests/reference_provision.*
 * keeps the linear scan as the differential oracle and checks the
 * monotonicity on a grid of workloads.
 *
 * The evaluation plans the mix exactly as runExperiment() would for
 * the given seed, so the returned allocation's bounds apply verbatim
 * to the subsequent simulation.
 */

#ifndef MEDIAWORM_CALCULUS_PROVISION_HH
#define MEDIAWORM_CALCULUS_PROVISION_HH

#include <cstdint>
#include <string>

#include "calculus/oracle.hh"

namespace mediaworm::calculus {

/** What the provisioner must achieve. */
struct ProvisionRequest
{
    /** Required worst-case end-to-end delay per stream, us (in the
     *  same time base as the workload handed in - i.e. scaled). */
    double slaUs = 0.0;

    /** Analysis knobs forwarded to the oracle. */
    OracleConfig oracle;
};

/** The chosen allocation, or infeasibility. */
struct ProvisionResult
{
    bool feasible = false;

    /** Chosen RouterConfig::numVcs. */
    int numVcs = 0;

    /** Chosen TrafficConfig::reservedRateFactor. */
    double reservedRateFactor = 1.0;

    /** Worst per-stream bound under the chosen allocation, us. */
    double worstBoundUs = kUnbounded;

    /** Streams the evaluated plan carries. */
    int rtStreams = 0;

    /** One-line human-readable summary. */
    std::string describe() const;
};

/**
 * Searches for the least allocation meeting @p request.
 *
 * @param router  Base router configuration (numVcs is overridden).
 * @param traffic Workload at full scale, BEFORE time-scale
 *                compression (reservedRateFactor is overridden).
 * @param net     Topology.
 * @param seed    The experiment seed; the mix is planned with the
 *                same derived RNG runExperiment() will use.
 * @param time_scale The experiment's timeScale, applied here the
 *                same way runExperiment() applies it.
 * @param request SLA target and oracle knobs.
 */
ProvisionResult provision(const config::RouterConfig& router,
                          const config::TrafficConfig& traffic,
                          const config::NetworkConfig& net,
                          std::uint64_t seed, double time_scale,
                          const ProvisionRequest& request);

} // namespace mediaworm::calculus

#endif // MEDIAWORM_CALCULUS_PROVISION_HH
