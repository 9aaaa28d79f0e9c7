/**
 * @file
 * Reference delay-bound oracle (test oracle).
 *
 * The original computeBounds() core: a std::map point table and, at
 * every (flow, hop), a scan over all M members of the point, so one
 * TFA or SFA pass costs O(sum over points of M^2). It iterates
 * Gauss-Seidel (each flow reads the others' latest state) for a
 * fixed pass count and keeps the last iterate. calculus::computeBounds
 * computes the same analysis from per-point interference sums in
 * O(sum of route lengths) per pass; tests/test_oracle_reference.cc
 * checks the two against each other wherever this one converges.
 * Deliberately simple so it is easy to check by eye.
 */

#ifndef MEDIAWORM_TESTS_REFERENCE_ORACLE_HH
#define MEDIAWORM_TESTS_REFERENCE_ORACLE_HH

#include <vector>

#include "calculus/oracle.hh"

namespace mediaworm::reference {

/** One reference run: the report and how its iteration ended. */
struct ReferenceBounds
{
    calculus::BoundsReport report;
    int passes = 0;         ///< TFA passes run.
    bool converged = false; ///< The last pass changed nothing.
};

/**
 * The quadratic oracle. Same inputs as calculus::computeBounds; a
 * zero OracleConfig::tfaPasses runs max route length + 1 passes.
 * Unlike computeBounds, a non-converged iteration still reports its
 * last iterate (check ReferenceBounds::converged).
 */
ReferenceBounds computeBounds(const config::RouterConfig& router,
                              const config::TrafficConfig& traffic,
                              const config::NetworkConfig& net,
                              const std::vector<traffic::Stream>& streams,
                              const calculus::OracleConfig& oracle = {});

} // namespace mediaworm::reference

#endif // MEDIAWORM_TESTS_REFERENCE_ORACLE_HH
