#include "sim/cpus.hh"

#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace mediaworm::sim {

int
usableCpus()
{
#ifdef __linux__
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int count = CPU_COUNT(&mask);
        if (count > 0)
            return count;
    }
#endif
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

} // namespace mediaworm::sim
