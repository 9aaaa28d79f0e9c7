/**
 * @file
 * Crash-time flight recorder.
 *
 * Dumps a sim::Tracer ring of the most recent simulation events
 * (flit lifecycle points and credit returns, each with time, router /
 * port / VC and flit identity) when the run dies. It is cheap enough
 * to leave armed on debugging runs: recording is the Tracer's
 * ring-buffer append, and an untraced run costs the usual null
 * tracer-pointer check on the hot paths.
 *
 * arm() installs a sim::setCrashHook() handler, so the moment
 * checkInvariants() trips an assertion, a panic() fires, or a
 * configuration fatal() aborts the run, the recorder dumps its trail
 * to stderr - the last N things the simulator did, ending at the
 * failure - before the process terminates. That turns "assertion
 * failed at wormhole_router.cc:614" into an actionable trace of which
 * flits moved through which ports right before the state went bad.
 */

#ifndef MEDIAWORM_OBS_FLIGHT_RECORDER_HH
#define MEDIAWORM_OBS_FLIGHT_RECORDER_HH

#include <cstddef>
#include <string>

#include "sim/tracer.hh"

namespace mediaworm::obs {

/** Crash-dump hook over a ring of recent sim events. */
class FlightRecorder
{
  public:
    /** A crash dump renders at most this many trailing events. */
    static constexpr std::size_t kDumpTail = 256;

    /**
     * Dumps @p ring, the trace ring the observed components record
     * into (Network::attachTracer), so one ring can feed both the
     * Chrome-trace export and the crash dump. @p ring must outlive
     * the recorder.
     */
    explicit FlightRecorder(const sim::Tracer& ring) : ring_(ring) {}

    /** Disarms (uninstalls the crash hook) if still armed. */
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /**
     * Installs this recorder as the process crash hook: fatal() and
     * panic() dump the trail before terminating. Only one recorder
     * can be armed at a time; arming replaces the previous hook.
     */
    void arm();

    /**
     * The human-readable trail: a header plus one line per event,
     * oldest first (the same rendering a crash prints). Capped at the
     * newest kDumpTail events so a crash stays readable even when the
     * recorder shares a large trace ring.
     */
    std::string dump() const;

  private:
    static void crashDump(void* context);

    const sim::Tracer& ring_;
    bool armed_ = false;
};

} // namespace mediaworm::obs

#endif // MEDIAWORM_OBS_FLIGHT_RECORDER_HH
