/**
 * @file
 * Differential tests of the --provision search (ctest label
 * "calculus"): calculus::provision() bisects each VC count's
 * reserved-rate grid, and must return exactly what the linear scan
 * of tests/reference_provision.* returns over the same grid. The
 * bisection is sound only if the worst bound is non-increasing in the
 * factor along every grid row, so every grid is checked for that too.
 *
 * Separate from mediaworm_tests because each workload evaluates the
 * full 5 x 25 grid: 125 oracle runs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "calculus/provision.hh"
#include "reference_provision.hh"

namespace {

using namespace mediaworm;
using reference::ProvisionRow;

/** One provisioning workload, as mediaworm_sim builds it. */
struct ProvisionCase
{
    std::string name;
    config::RouterConfig router;
    config::TrafficConfig traffic;
    config::NetworkConfig net;
};

constexpr double kTimeScale = 0.01;
constexpr std::uint64_t kSeed = 1;

/** Every row of @p grid is non-increasing in the factor. */
void
expectMonotoneRows(const std::vector<ProvisionRow>& grid)
{
    for (const ProvisionRow& row : grid) {
        ASSERT_EQ(row.cells.size(), 25u);
        for (std::size_t k = 1; k < row.cells.size(); ++k) {
            EXPECT_LE(row.cells[k].worstUs, row.cells[k - 1].worstUs)
                << row.numVcs << " VCs, factor "
                << row.cells[k - 1].factor << " -> "
                << row.cells[k].factor;
        }
    }
}

/**
 * SLAs that probe the search: the paper-axis SLAs mediaworm_sim is
 * asked for (33, 100 and 1000 ms), plus each row's mid-grid bound and
 * a hair below it. Where a row falls with the factor, those land
 * between two factors and the bisection has to find the boundary.
 */
std::vector<double>
probeSlas(const std::vector<ProvisionRow>& grid)
{
    std::vector<double> slas;
    const auto add = [&slas](double sla) {
        if (sla < calculus::kUnbounded
            && std::find(slas.begin(), slas.end(), sla) == slas.end())
            slas.push_back(sla);
    };
    for (const double ms : {33.0, 100.0, 1000.0})
        add(ms * 1000.0 * kTimeScale);
    for (const ProvisionRow& row : grid) {
        const double mid = row.cells[row.cells.size() / 2].worstUs;
        add(mid);
        add(mid * (1.0 - 1e-9));
    }
    return slas;
}

/**
 * The grid of @p c is monotone, and for every probed SLA the bisected
 * search equals the linear scan field for field.
 */
void
expectSameAsScan(const ProvisionCase& c)
{
    SCOPED_TRACE(c.name);
    const std::vector<ProvisionRow> grid = reference::provisionGrid(
        c.router, c.traffic, c.net, kSeed, kTimeScale);
    ASSERT_FALSE(grid.empty());
    expectMonotoneRows(grid);

    int feasible = 0;
    int interior = 0;
    const std::vector<double> slas = probeSlas(grid);
    for (const double sla_us : slas) {
        calculus::ProvisionRequest request;
        request.slaUs = sla_us;
        const calculus::ProvisionResult got = calculus::provision(
            c.router, c.traffic, c.net, kSeed, kTimeScale, request);
        const calculus::ProvisionResult want =
            reference::scanProvision(grid, sla_us);
        SCOPED_TRACE("SLA " + std::to_string(sla_us) + " us");
        EXPECT_EQ(got.feasible, want.feasible);
        EXPECT_EQ(got.numVcs, want.numVcs);
        EXPECT_EQ(got.reservedRateFactor, want.reservedRateFactor);
        EXPECT_EQ(got.worstBoundUs, want.worstBoundUs);
        EXPECT_EQ(got.rtStreams, want.rtStreams);
        EXPECT_EQ(got.describe(), want.describe());
        if (want.feasible) {
            ++feasible;
            interior += want.reservedRateFactor > 1.0 ? 1 : 0;
        }
    }
    std::printf("[ provision] %-26s %2zu SLAs: %2d feasible, %2d above "
                "factor 1\n",
                c.name.c_str(), slas.size(), feasible, interior);
}

ProvisionCase
makeCase(const std::string& topology, double load)
{
    ProvisionCase c;
    c.name = topology + " load " + std::to_string(load).substr(0, 3);
    c.traffic.inputLoad = load;
    if (topology == "fat-mesh") {
        c.net.topology = config::TopologyKind::FatMesh;
    } else if (topology == "clos") {
        c.net.topology = config::TopologyKind::Clos;
        c.net.closM = 4;
        c.net.closN = 4;
        c.net.closR = 16;
        c.router.numPorts = 16;
    }
    return c;
}

TEST(ProvisionBisection, SingleSwitchMatchesLinearScan)
{
    for (const double load : {0.1, 0.3, 0.5, 0.8})
        expectSameAsScan(makeCase("single-switch", load));
}

TEST(ProvisionBisection, FatMeshMatchesLinearScan)
{
    for (const double load : {0.1, 0.3, 0.5, 0.8})
        expectSameAsScan(makeCase("fat-mesh", load));
}

TEST(ProvisionBisection, ClosMatchesLinearScan)
{
    for (const double load : {0.1, 0.3, 0.5, 0.8})
        expectSameAsScan(makeCase("clos", load));
}

TEST(ProvisionBisection, ReservationLeverMatchesLinearScan)
{
    // With Virtual Clock injection every scheduling point is strict
    // priority, so the reserved rate moves the bound (the lever of
    // CalculusBounds.ReservedRateTightensTheBound) and the least
    // meeting factor can sit inside the grid.
    for (const double load : {0.1, 0.3}) {
        ProvisionCase c = makeCase("single-switch", load);
        c.name = "vc-injection " + c.name;
        c.router.injectionScheduler = config::SchedulerKind::VirtualClock;
        expectSameAsScan(c);
    }
}

} // namespace
