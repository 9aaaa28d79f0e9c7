/**
 * @file
 * Reference provisioning search (test oracle).
 *
 * The original calculus::provision() search, split in two: the grid
 * of oracle runs it draws on, and its linear scan over that grid. For
 * each VC count in {4, 8, 16, 32, 64} the grid holds the worst bound
 * at 25 reserved-rate factors from 1 to the stamp-load cap; the scan
 * walks each row from the least factor and stops at the first that
 * meets the SLA. calculus::provision() bisects the same rows;
 * tests/test_provision.cc checks the two against each other and that
 * every row is non-increasing, which the bisection relies on.
 * Deliberately simple so it is easy to check by eye.
 */

#ifndef MEDIAWORM_TESTS_REFERENCE_PROVISION_HH
#define MEDIAWORM_TESTS_REFERENCE_PROVISION_HH

#include <cstdint>
#include <vector>

#include "calculus/provision.hh"

namespace mediaworm::reference {

/** One oracle run of the grid. */
struct ProvisionCell
{
    double factor = 1.0;
    double worstUs = calculus::kUnbounded; ///< kUnbounded if any stream is.
    int streams = 0;
};

/** One VC count's factors, least first. */
struct ProvisionRow
{
    int numVcs = 0;
    std::vector<ProvisionCell> cells;
};

/**
 * Every grid cell, with the inputs of calculus::provision(). A VC
 * count whose partition has no real-time lane has no row.
 */
std::vector<ProvisionRow>
provisionGrid(const config::RouterConfig& router,
              const config::TrafficConfig& traffic,
              const config::NetworkConfig& net, std::uint64_t seed,
              double time_scale, const calculus::OracleConfig& oracle = {});

/**
 * The linear scan over @p grid: per row the first factor meeting
 * @p sla_us, then the least factor across rows (ties broken by the
 * tighter bound). rtStreams is the largest stream count among the
 * cells the scan visits.
 */
calculus::ProvisionResult
scanProvision(const std::vector<ProvisionRow>& grid, double sla_us);

} // namespace mediaworm::reference

#endif // MEDIAWORM_TESTS_REFERENCE_PROVISION_HH
