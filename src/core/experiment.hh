/**
 * @file
 * One-call experiment harness: build a network, offer a workload,
 * measure the paper's output parameters.
 *
 * This is the primary public API: every figure/table bench, example
 * and integration test drives the simulator through runExperiment().
 */

#ifndef MEDIAWORM_CORE_EXPERIMENT_HH
#define MEDIAWORM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "calculus/oracle.hh"
#include "config/network_config.hh"
#include "config/router_config.hh"
#include "config/traffic_config.hh"
#include "obs/observer.hh"
#include "sim/time.hh"

namespace mediaworm::core {

/** Everything that defines one experiment point. */
struct ExperimentConfig
{
    config::RouterConfig router;
    config::TrafficConfig traffic;
    config::NetworkConfig network;

    /** Root RNG seed; identical seeds give identical results. */
    std::uint64_t seed = 1;

    /**
     * Time-scale compression of the workload
     * (config::TrafficConfig::scaled), in (0, 1]. The paper simulates
     * full MPEG-2 frames (16,666 B every 33 ms), gathering millions
     * of messages per point; delivery intervals shrink by this
     * factor and are reported both raw and re-normalised. 1.0
     * reproduces the paper's full-size workload.
     */
    double timeScale = 0.1;

    /** Abort the run after this much simulated time; 0 = automatic
     *  (several times the injection horizon). */
    sim::Tick maxSimTime = 0;

    /**
     * Shard count for conservative-parallel execution (sim/pdes.hh):
     * the mesh is cut into contiguous router strips, each run on its
     * own thread, synchronized with the link latency as lookahead.
     * 1 (default) is the classic single-threaded run; 0 picks one
     * shard per usable CPU. Clamped to the router count, and a
     * single switch always runs on one shard. Any value produces
     * bit-identical results - modelDigest and kernelDigest do not
     * depend on it (tests/test_pdes.cc enforces this).
     */
    int shards = 1;

    /**
     * Observability: per-stream telemetry, flight recorder, event
     * trace. All off by default; enabling any of them changes no
     * deterministic output (see obs/observer.hh).
     */
    obs::ObsConfig obs;

    /**
     * Network-calculus oracle: when enabled, per-stream worst-case
     * delay bounds are computed for the planned mix (pure analysis -
     * no events, no RNG draws, both digests unchanged) and
     * attached to ExperimentResult::bounds.
     */
    calculus::OracleConfig calculus;
};

/** Measured outputs of one experiment point. */
struct ExperimentResult
{
    /** Mean frame delivery interval d, in (scaled) milliseconds. */
    double meanIntervalMs = 0.0;
    /** Standard deviation sigma_d, in (scaled) milliseconds. */
    double stddevIntervalMs = 0.0;

    /** d re-normalised to the unscaled frame interval, directly
     *  comparable with the paper's 33 ms axis. */
    double meanIntervalNormMs = 0.0;
    /** sigma_d re-normalised likewise. */
    double stddevIntervalNormMs = 0.0;

    /** Average best-effort message latency in microseconds. */
    double beLatencyUs = 0.0;
    /** Best-effort in-network latency (excludes host queueing). */
    double beNetworkLatencyUs = 0.0;
    /** 99th-percentile best-effort latency in microseconds. */
    double beLatencyP99Us = 0.0;
    /** Average real-time message latency in microseconds. */
    double rtMessageLatencyUs = 0.0;

    std::uint64_t intervalSamples = 0;  ///< Measured frame intervals.
    std::uint64_t framesDelivered = 0;  ///< All frames, incl. warmup.
    std::uint64_t beMessages = 0;       ///< Best-effort deliveries.
    std::uint64_t flitsDelivered = 0;   ///< All flits at sinks.
    std::uint64_t eventsFired = 0;      ///< Kernel events executed.
    /** Of eventsFired, no-op wakeups elided by sim::LazyTick: credited
     *  (never popped or fired) so each counts in eventsFired as the
     *  event it stands for while the queue skips the traffic.
     *  Host-independent; a kernel work count, so it enters only
     *  kernelDigest(). */
    std::uint64_t elidedEvents = 0;
    /** Simulated ticks the kernel clock jumped over without touching
     *  the calendar ring (idle gaps between events, plus the tail up
     *  to the cap), summed over shards. Purely a reporting counter:
     *  it depends on the shard count (each shard skips its own local
     *  gaps), so - unlike eventsFired - it is excluded from both
     *  digests. */
    std::uint64_t idleTicksSkipped = 0;

    int rtStreams = 0;       ///< Real-time streams offered.
    int streamsPerNode = 0;  ///< Per-node stream count.

    double simulatedMs = 0.0; ///< Simulated time consumed.
    double wallSeconds = 0.0; ///< Host time consumed.
    /** Kernel throughput, eventsFired / wallSeconds. Depends on the
     *  host machine, not the seed - excluded from deterministic
     *  campaign aggregates, reported under their timing section. */
    double eventsPerSec = 0.0;
    bool truncated = false;   ///< Hit maxSimTime before draining.

    /**
     * Observations gathered when ExperimentConfig::obs enabled any
     * observer; null otherwise. Shared so campaign result copies stay
     * cheap. Excluded from both digests - observation must never
     * change what they fingerprint.
     */
    std::shared_ptr<obs::RunObservations> observations;

    /**
     * Analytic per-stream delay bounds, present when
     * ExperimentConfig::calculus was enabled; null otherwise. Like
     * observations, excluded from both digests - the oracle
     * reports on the run, it never participates in it.
     */
    std::shared_ptr<const calculus::BoundsReport> bounds;

    /** One-line human-readable summary. */
    std::string describe() const;

    /**
     * FNV-1a 64 digest over the model outputs: every deterministic
     * field except the kernel's event counts (the doubles' bit
     * patterns, not rounded values), in declaration order.
     * Machine-dependent fields (wallSeconds, eventsPerSec) are
     * excluded too. For a fixed config and seed it fingerprints what
     * the simulated network did: any behavioural change in the
     * router, flow control, scheduling or traffic path moves it,
     * while kernel work that changes only how many events a run
     * costs does not. It is identical across shard counts and
     * dispatch modes. Used by the determinism regression tests.
     */
    std::uint64_t modelDigest() const;

    /**
     * FNV-1a 64 digest over the kernel's work counts, eventsFired
     * and elidedEvents. Both are host-independent and identical
     * across shard counts, so this pins how many events a fixed
     * run costs; it moves whenever the kernel schedules work
     * differently (lazy link credits, elided wakeups) even though
     * modelDigest() does not.
     */
    std::uint64_t kernelDigest() const;
};

/** Runs one experiment point to completion. */
ExperimentResult runExperiment(const ExperimentConfig& cfg);

} // namespace mediaworm::core

#endif // MEDIAWORM_CORE_EXPERIMENT_HH
