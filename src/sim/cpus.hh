/**
 * @file
 * How many CPUs this process may actually run on.
 */

#ifndef MEDIAWORM_SIM_CPUS_HH
#define MEDIAWORM_SIM_CPUS_HH

namespace mediaworm::sim {

/**
 * CPUs in the calling thread's affinity mask (what taskset, cpusets
 * and container CPU pinning leave usable), never less than 1.
 * std::thread::hardware_concurrency() counts installed CPUs and
 * ignores the mask; it is the fallback where the mask is unavailable.
 * Auto-sizing thread counts (--shards 0, campaign jobs=0) use this so
 * a restricted process does not oversubscribe its CPUs.
 */
int usableCpus();

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_CPUS_HH
