/**
 * @file
 * Status and error reporting helpers, modelled on gem5's logging.hh.
 *
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, impossible parameters). Exits cleanly.
 * panic()  - an internal invariant was violated (a simulator bug).
 *            Aborts so a core/backtrace is available.
 * warn()   - something looks wrong but the simulation can continue.
 */

#ifndef MEDIAWORM_SIM_LOGGING_HH
#define MEDIAWORM_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace mediaworm::sim {

/** Terminates with exit(1); for user errors. Printf-style format. */
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Terminates with abort(); for simulator bugs. Printf-style format. */
[[noreturn]] void panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Last-words callback invoked by fatal() and panic() after printing
 * their message and before terminating, so an observer (the obs
 * flight recorder) can dump its trail of recent events to stderr.
 *
 * A plain function pointer + context keeps logging free of
 * std::function; pass nullptr to uninstall. The hook must be
 * async-termination-safe in the ordinary sense: it runs on the
 * failing thread and must not call fatal()/panic() itself.
 */
using CrashHook = void (*)(void* context);

/** Installs @p hook (replacing any previous one). */
void setCrashHook(CrashHook hook, void* context);

/** Current hook, or nullptr; @p context receives its context. */
CrashHook crashHook(void** context);

/** Non-fatal complaint to stderr. Printf-style format. */
void warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Hard invariant check that survives NDEBUG builds.
 * Use for conditions whose violation means a simulator bug.
 */
#define MW_ASSERT(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::mediaworm::sim::panic("assertion '%s' failed at %s:%d",   \
                                    #cond, __FILE__, __LINE__);         \
        }                                                               \
    } while (0)

/**
 * Invariant check on a per-flit hot path (buffer accesses, arbiter
 * kernels). Same contract as MW_ASSERT in debug builds, compiled out
 * under NDEBUG so Release builds pay nothing; the CI Release job runs
 * the full test suite with these disabled to catch code that relies
 * on an assert's side effects.
 */
#ifdef NDEBUG
#define MW_DEBUG_ASSERT(cond, ...) \
    do {                           \
    } while (0)
#else
#define MW_DEBUG_ASSERT(cond, ...) MW_ASSERT(cond)
#endif

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_LOGGING_HH
