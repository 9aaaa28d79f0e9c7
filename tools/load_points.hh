/**
 * @file
 * mediaworm_sim's load axis and its standard-column results table,
 * kept header-only so the test suite can drive them directly.
 */

#ifndef MEDIAWORM_TOOLS_LOAD_POINTS_HH
#define MEDIAWORM_TOOLS_LOAD_POINTS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "core/table.hh"

namespace mediaworm::tools {

/**
 * Adds one campaign point per load, labelled load=%.2f: @p base with
 * its input load replaced, in the order given.
 */
inline void
addLoadPoints(campaign::Campaign& camp, const core::ExperimentConfig& base,
              const std::vector<double>& loads)
{
    for (double load : loads) {
        core::ExperimentConfig cfg = base;
        cfg.traffic.inputLoad = load;
        char label[32];
        std::snprintf(label, sizeof(label), "load=%.2f", load);
        camp.addPoint(label, cfg);
    }
}

/**
 * The standard columns, one row per point: d, its 95% CI when there
 * are replications, sigma_d, best-effort latencies, stream count,
 * wall time and event throughput.
 */
inline core::Table
resultsTable(const std::vector<campaign::PointSummary>& results,
             bool withCi)
{
    std::vector<std::string> headers{"point", "d (ms)"};
    if (withCi)
        headers.push_back("d ci95");
    for (const char* h : {"sigma_d (ms)", "BE total (us)",
                          "BE network (us)", "streams", "wall (s)",
                          "Mev/s"})
        headers.push_back(h);

    core::Table table(std::move(headers));
    for (const campaign::PointSummary& s : results) {
        std::vector<std::string> cells{
            s.label, core::Table::num(s.mean("mean_interval_norm_ms"), 2)};
        if (withCi) {
            cells.push_back(
                "+-"
                + core::Table::num(
                    s.metric("mean_interval_norm_ms").ci95, 3));
        }
        cells.push_back(
            core::Table::num(s.mean("stddev_interval_norm_ms"), 3));
        cells.push_back(core::Table::num(s.mean("be_latency_us"), 1));
        cells.push_back(
            core::Table::num(s.mean("be_network_latency_us"), 1));
        cells.push_back(core::Table::num(
            static_cast<std::int64_t>(s.first().rtStreams)));
        cells.push_back(core::Table::num(s.mean("wall_seconds"), 2));
        cells.push_back(
            core::Table::num(s.mean("events_per_sec") / 1e6, 2));
        table.addRow(std::move(cells));
    }
    return table;
}

} // namespace mediaworm::tools

#endif // MEDIAWORM_TOOLS_LOAD_POINTS_HH
