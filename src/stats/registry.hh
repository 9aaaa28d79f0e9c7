/**
 * @file
 * Named statistics registry for end-of-run reporting.
 *
 * Components register scalar-producing callbacks under hierarchical
 * names ("router0.port3.output_load"); a reporter walks entries()
 * after a run and evaluates each value.
 */

#ifndef MEDIAWORM_STATS_REGISTRY_HH
#define MEDIAWORM_STATS_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

namespace mediaworm::stats {

/** A named scalar statistic with a lazy value producer. */
struct StatEntry
{
    std::string name;              ///< Hierarchical dotted name.
    std::function<double()> value; ///< Evaluated when read.
};

/** Collects StatEntry items in registration order. */
class Registry
{
  public:
    Registry() = default;

    /** Registers a scalar statistic. */
    void
    add(std::string name, std::function<double()> value)
    {
        entries_.push_back({std::move(name), std::move(value)});
    }

    /** All entries in registration order. */
    const std::vector<StatEntry>& entries() const { return entries_; }

  private:
    std::vector<StatEntry> entries_;
};

} // namespace mediaworm::stats

#endif // MEDIAWORM_STATS_REGISTRY_HH
