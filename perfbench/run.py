#!/usr/bin/env python3
"""MediaWorm simulator benchmark.

Builds perfbench/driver.cc against the library (Release, asserts off),
runs one workload, checks every simulation's model outputs and prints
the benchmark metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(host time of untraced runs); with --trace 1 they are the per-layer
metrics, from an outside-in traced run plus untraced reference runs.

    python3 perfbench/run.py --workload switch-vc --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every metric, every
                                                 # workload, as a table

Run from the repository root. See perfbench/README.md for the metric
and workload definitions.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("switch-vc", "torus8x8-dor", "fatmesh-2shard")
DRIVER_TIMEOUT_S = 120
# Simulation inputs (seeds derived from --seed) one timed run cycles
# through, so its figures - peak memory above all - do not hinge on a
# single input.
INPUTS = 8

# Model outputs a run must reproduce exactly. Event counts are left
# out: kernel restructuring may legitimately change them.
MODEL_OUTPUTS = (
    "mean_interval_ms", "stddev_interval_ms", "be_latency_us",
    "be_latency_p99_us", "rt_message_latency_us", "interval_samples",
    "frames_delivered", "be_messages", "flits_delivered", "truncated",
)

# Event class (Event::name()) -> per-layer metric prefix.
CLASS_LAYERS = {
    "RouterPortEvent": "router.port",
    "RouterVcEvent": "router.vc",
    "Link::deliverFlits": "router.link.flit",
    "Link::deliverCredits": "router.link.credit",
    "NetworkInterface::mux": "network.ni",
    "FrameSource": "traffic",
    "BestEffortSource": "traffic",
    "other": "trace.other",
}
SHARE_LAYERS = tuple(dict.fromkeys(CLASS_LAYERS.values()))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build and provenance -------------------------------------------------

def build():
    """Configures (once) and builds the driver; quiet unless it fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    # Written after a successful configure, so a failed one is retried.
    stamp = os.path.join(BUILD_DIR, "configured.stamp")
    steps = []
    if not os.path.exists(stamp):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError("build failed: " + " ".join(cmd))
        if cmd[1] == "-S":
            open(stamp, "w").close()


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def provenance():
    """Host and build facts recorded with every result (as in
    tools/bench_kernel.sh). Refuses a build with MW_DEBUG_ASSERT live."""
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]))
    if "-DNDEBUG" not in flags.split():
        raise BenchError("build %r keeps MW_DEBUG_ASSERT live (no "
                         "-DNDEBUG); refusing to report numbers"
                         % build_type)
    cpu_model = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    turbo = "unknown"
    no_turbo = read_first("/sys/devices/system/cpu/intel_pstate/no_turbo")
    boost = read_first("/sys/devices/system/cpu/cpufreq/boost")
    if no_turbo in ("0", "1"):
        turbo = "on" if no_turbo == "0" else "off"
    elif boost in ("0", "1"):
        turbo = "on" if boost == "1" else "off"
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "turbo": turbo,
        "loadavg_start": list(os.getloadavg()),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": build_type,
        "compiler_flags": flags,
        "simd": cache.get("MEDIAWORM_SIMD", "unknown"),
    }


# --- correctness -----------------------------------------------------------

def load_reference(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def run_problems(run, baseline, reference):
    """Reasons @p run is wrong; empty when it is correct."""
    out = run["outputs"]
    problems = []
    if out["truncated"]:
        problems.append("truncated at the time cap")
    if run["flits_injected"] != out["flits_delivered"]:
        problems.append("flits injected %d != delivered %d"
                        % (run["flits_injected"], out["flits_delivered"]))
    expected_frames = run["rt_streams"] * run["frames_per_stream"]
    if out["frames_delivered"] != expected_frames:
        problems.append("frames delivered %d != offered %d"
                        % (out["frames_delivered"], expected_frames))
    if out["interval_samples"] <= 0:
        problems.append("no frame intervals measured")
    model = {k: out[k] for k in MODEL_OUTPUTS}
    if reference is not None:
        diff = [k for k in MODEL_OUTPUTS if model[k] != reference.get(k)]
        if diff:
            problems.append("differs from the recorded reference in "
                            + ", ".join(diff))
    # Every run of one seed - repeated, traced, one- or two-shard -
    # must reproduce the first run's model outputs and event count.
    diff = [k for k in MODEL_OUTPUTS if model[k] != baseline["outputs"][k]]
    if diff:
        problems.append("differs from the %s run in %s"
                        % (baseline["kind"], ", ".join(diff)))
    if run["events"] != baseline["events"]:
        problems.append("fired %d events, the %s run %d"
                        % (run["events"], baseline["kind"],
                           baseline["events"]))
    return problems


def check_runs(doc, reference_table):
    """Checks every simulation run; returns (attempted, failed)."""
    references = reference_table.get(doc["workload"], {})
    baselines = {}
    failed = 0
    for run in doc["runs"]:
        baseline = baselines.setdefault(run["seed"], run)
        problems = run_problems(run, baseline,
                                references.get(str(run["seed"])))
        if problems:
            failed += 1
            log("FAILED %s run (seed %d, %d shard): %s"
                % (run["kind"], run["seed"], run["shards"],
                   "; ".join(problems)))
    return len(doc["runs"]), failed


# --- metrics ---------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(doc):
    timed = [r for r in doc["runs"] if r["kind"] == "timed"]
    # Peak memory is set by the input, not by host noise: weigh every
    # input equally (its median over repeats), then average.
    rss_by_input = {}
    for r in timed:
        rss_by_input.setdefault(r["seed"], []).append(r["peak_rss_mb"])
    return {
        "run_s": metric(median([r["run_s"] for r in timed]), "s"),
        "setup_s": metric(median([r["setup_s"] for r in timed]), "s"),
        "flits_per_s": metric(
            median([r["outputs"]["flits_delivered"] / r["run_s"]
                    for r in timed]), "1/s"),
        "peak_rss_mb": metric(
            fmean([median(v) for v in rss_by_input.values()]),
            "MiB"),
    }


def layer_shares(classes, loop_s):
    """Share of the traced loop's host time per layer. The layer
    shares plus trace.unattributed_share sum to exactly 1."""
    shares = {layer: 0.0 for layer in SHARE_LAYERS}
    for name, bucket in classes.items():
        shares[CLASS_LAYERS[name]] += bucket["s"] / loop_s
    shares["trace.unattributed"] = 1.0 - sum(shares.values())
    return shares


def pdes_figures(run):
    """sim.pdes.* from one multi-shard run's per-shard counters."""
    stats = run["shard_stats"]
    epochs = max(s["epochs"] for s in stats)
    busy = [s["run_s"] for s in stats]
    blocked = sum(s["blocked_s"] for s in stats)
    return {
        "epochs": epochs,
        "events_per_epoch": sum(s["events"] for s in stats) / epochs,
        "mailbox_items": sum(s["mailbox_items"] for s in stats),
        "blocked_share": blocked / (sum(busy) + blocked),
        "ff_epoch_share": stats[0]["ff_epochs"] / epochs,
        "imbalance": max(busy) / (sum(busy) / len(busy)),
    }


def per_layer_metrics(doc):
    runs = doc["runs"]
    primary = [r for r in runs if r["kind"] == "primary"]
    traced = [r for r in runs if r["kind"] == "traced"]
    # The one-shard untraced run each traced run is compared with.
    single = [r for r in runs if r["kind"] == "single"] or primary
    sharded = [r for r in runs
               if r["kind"] in ("primary", "sharded") and r["shards"] > 1]
    first = traced[0]
    events = first["events"]

    def med_class(name):
        return median([t["classes"][name]["s"] for t in traced])

    m = {}
    m["sim.events"] = metric(events, "count")
    m["sim.ns_per_event"] = metric(
        median([r["run_s"] for r in primary]) / events * 1e9, "ns")
    m["sim.events_per_step"] = metric(
        first["fired_in_steps"] / first["steps"], "ratio")
    m["sim.elided_share"] = metric(first["elided"] / events, "ratio")
    m["sim.near_depth_mean"] = metric(
        first["near_depth_sum"] / first["steps"], "count")
    m["sim.far_depth_mean"] = metric(
        first["far_depth_sum"] / first["steps"], "count")
    m["sim.far_share"] = metric(
        first["far_depth_sum"]
        / (first["near_depth_sum"] + first["far_depth_sum"]), "ratio")

    for name, prefix in CLASS_LAYERS.items():
        if prefix in ("traffic", "trace.other"):
            continue  # traffic merges two classes, below
        m[prefix + ".self_s"] = metric(med_class(name), "s")
        m[prefix + ".events"] = metric(
            first["classes"][name]["events"], "count")
    m["router.alloc_waits_per_header"] = metric(
        first["alloc_waits"] / first["headers_routed"], "ratio")
    link_s = median([t["classes"]["Link::deliverFlits"]["s"]
                     + t["classes"]["Link::deliverCredits"]["s"]
                     for t in traced])
    m["router.link.ns_per_flit"] = metric(
        link_s / first["link_flits"] * 1e9, "ns")
    m["network.build_s"] = metric(
        median([r["build_s"] for r in primary]), "s")
    m["traffic.self_s"] = metric(
        median([t["classes"]["FrameSource"]["s"]
                + t["classes"]["BestEffortSource"]["s"] for t in traced]),
        "s")
    m["traffic.events"] = metric(
        first["classes"]["FrameSource"]["events"]
        + first["classes"]["BestEffortSource"]["events"], "count")
    m["traffic.plan_s"] = metric(
        median([r["plan_s"] for r in primary]), "s")
    m["traffic.sources_s"] = metric(
        median([r["sources_s"] for r in primary]), "s")
    m["calculus.bounds_s"] = metric(
        median([r["bounds_s"] for r in primary]), "s")

    # PDES figures from the two-shard runs; 0 where the shape cannot
    # shard (the single switch always runs on one shard).
    units = {"epochs": "count", "events_per_epoch": "ratio",
             "mailbox_items": "count", "blocked_share": "ratio",
             "ff_epoch_share": "ratio", "imbalance": "ratio"}
    figures = [pdes_figures(r) for r in sharded]
    for key, unit in units.items():
        value = median([f[key] for f in figures]) if figures else 0
        m["sim.pdes." + key] = metric(value, unit)
    speedup = 0.0
    if sharded:
        speedup = (median([r["run_s"] for r in single])
                   / median([r["run_s"] for r in sharded]))
    m["sim.pdes.speedup"] = metric(speedup, "ratio")

    m["trace.overhead"] = metric(
        median([t["loop_s"] for t in traced])
        / median([r["run_s"] for r in single]), "ratio")
    # Shares over all traced runs pooled, so they still sum to 1.
    pooled = {name: {"s": sum(t["classes"][name]["s"] for t in traced)}
              for name in CLASS_LAYERS}
    shares = layer_shares(pooled, sum(t["loop_s"] for t in traced))
    for layer, share in shares.items():
        name = (layer + "_share" if layer.startswith("trace.")
                else layer + ".share")
        m[name] = metric(share, "ratio")
    return m


# --- running ---------------------------------------------------------------

def input_seed(root, i):
    """Simulation seed of input @p i of root seed @p root; input 0 is
    the root itself (SplitMix64 over a Weyl step otherwise)."""
    if i == 0:
        return root
    mask = (1 << 64) - 1
    z = (root + 0x9E3779B97F4A7C15 * i) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def run_driver(workload, seed, kind, shards=0, traced=False):
    """One simulation in its own process; returns its JSON record."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--shards", str(shards), "--traced", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d" % proc.returncode)
    run = json.loads(proc.stdout)
    run["kind"] = kind
    return run


def timed_runs(workload, root, seconds):
    """Untraced runs cycling through INPUTS seeds until @p seconds have
    passed, each input at least once; then, for a multi-shard
    workload, one classic one-shard run of the root seed to check
    shard invariance."""
    runs = []
    start = time.monotonic()
    while len(runs) < INPUTS or time.monotonic() - start < seconds:
        runs.append(run_driver(workload, input_seed(root, len(runs)
                                                    % INPUTS), "timed"))
    if runs[0]["shards"] > 1:
        runs.append(run_driver(workload, root, "single", shards=1))
    return runs


def traced_runs(workload, root, seconds):
    """Groups of untraced + traced runs of the root seed until
    @p seconds have passed (at least one group)."""
    runs = []
    probe_shards = True
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        primary = run_driver(workload, root, "primary")
        runs.append(primary)
        if primary["shards"] > 1:
            runs.append(run_driver(workload, root, "single", shards=1))
        runs.append(run_driver(workload, root, "traced", traced=True))
        if primary["shards"] == 1 and probe_shards:
            # PDES figures from a two-shard run, where the shape splits.
            probe = run_driver(workload, root, "sharded", shards=2)
            probe_shards = probe["shards"] > 1
            if not probe_shards:
                probe["kind"] = "primary"
            runs.append(probe)
    return runs


def measure(workload, seed, seconds, trace, reference_path):
    runs = (traced_runs if trace else timed_runs)(workload, seed, seconds)
    doc = {"workload": workload, "seed": seed, "runs": runs}
    attempted, failed = check_runs(doc, load_reference(reference_path))
    metrics = {}
    if failed == 0:
        metrics = (per_layer_metrics(doc) if trace
                   else end_to_end_metrics(doc))
    # A failed run's numbers are rejected, not reported.
    return doc, {"correct": failed == 0, "attempted": attempted,
                 "failed": failed, "metrics": metrics}


def print_table(workload, trace, result):
    title = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print("== %s, %s: %d/%d runs correct"
          % (workload, title, result["attempted"] - result["failed"],
             result["attempted"]))
    for name, m in result["metrics"].items():
        print("  %-34s %18.6g %s" % (name, m["value"], m["unit"]))


def record_reference(doc, path):
    """Stores the model outputs of every simulation seed in @p doc."""
    table = load_reference(path)
    entries = table.setdefault(doc["workload"], {})
    for run in doc["runs"]:
        entries[str(run["seed"])] = {
            k: run["outputs"][k] for k in MODEL_OUTPUTS}
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    log("recorded %s root seed %d in %s"
        % (doc["workload"], doc["seed"], path))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's outputs as the reference "
                             "(after its runs agree with each other)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64 or args.seconds < 0:
        parser.error("--seed must be a 64-bit unsigned integer and "
                     "--seconds non-negative")

    try:
        build()
        prov = provenance()
        print("provenance: " + json.dumps(prov, sort_keys=True))
        if args.workload == "all":
            correct = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    _, result = measure(workload, args.seed, args.seconds,
                                        trace, REFERENCE)
                    print_table(workload, trace, result)
                    correct &= result["correct"]
            return 0 if correct else 1
        doc, result = measure(args.workload, args.seed, args.seconds,
                              args.trace, REFERENCE)
        if args.record_reference:
            if not result["correct"]:
                raise BenchError("runs disagree; not recording")
            record_reference(doc, REFERENCE)
    except (BenchError, OSError, ValueError, KeyError) as err:
        log("perfbench: %s" % err)
        return 1
    print_table(args.workload, args.trace, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
