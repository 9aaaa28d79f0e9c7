#!/usr/bin/env bash
# Runs the kernel micro benchmarks and records the results as one
# labeled entry in BENCH_kernel.json, the repo's kernel-performance
# trend file (see EXPERIMENTS.md for how to read it).
#
# usage: tools/bench_kernel.sh <build-dir> <label> [min-time]
#
#   build-dir  A configured build tree containing bench/micro_kernel
#              (and bench/micro_arbiter, whose rows are merged into
#              the same entry). Use a Release build for numbers worth
#              recording.
#   label      Name for this measurement ("seed-heap", "pr2-two-tier",
#              "ci-<sha>", ...). Re-using a label replaces the entry.
#   min-time   --benchmark_min_time seconds per benchmark (default 2).
#
# The headline number is BM_EndToEndExperiment's events/s counter:
# whole-simulator throughput on a fixed small experiment. The other
# benchmarks localize regressions (queue, RNG, arbitration, link).
#
# Each entry also records host metadata (logical core count, CPU
# model) because the BM_EndToEndFatMeshShards/N rows measure parallel
# shard scaling: their events/s is only meaningful relative to how
# many cores the host actually had. Shard-scaling rows carry their
# shard count in a "shards" field next to the timing.

set -euo pipefail

build_dir=${1:?usage: tools/bench_kernel.sh <build-dir> <label> [min-time]}
label=${2:?usage: tools/bench_kernel.sh <build-dir> <label> [min-time]}
min_time=${3:-2}

repo_root=$(cd "$(dirname "$0")/.." && pwd)
bench="$build_dir/bench/micro_kernel"
arbiter_bench="$build_dir/bench/micro_arbiter"
out_json="$repo_root/BENCH_kernel.json"

if [ ! -x "$bench" ]; then
    echo "error: $bench not found; build the tree first" >&2
    exit 1
fi

raw=$(mktemp)
arbiter_raw=$(mktemp)
trap 'rm -f "$raw" "$arbiter_raw"' EXIT

"$bench" --benchmark_format=json \
         --benchmark_min_time="$min_time" > "$raw"

if [ -x "$arbiter_bench" ]; then
    "$arbiter_bench" --benchmark_format=json \
                     --benchmark_min_time="$min_time" > "$arbiter_raw"
else
    echo "warning: $arbiter_bench not found; skipping arbiter rows" >&2
    echo '{"benchmarks": []}' > "$arbiter_raw"
fi

cores=$(nproc)
cpu_model=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo \
    2>/dev/null || true)
cpu_model=${cpu_model:-unknown}

# Frequency-management state: numbers taken under "powersave" or with
# turbo enabled are not comparable run-to-run, so record both.
governor=$(cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_governor \
    2>/dev/null || true)
governor=${governor:-unknown}
if [ -r /sys/devices/system/cpu/intel_pstate/no_turbo ]; then
    case $(cat /sys/devices/system/cpu/intel_pstate/no_turbo) in
        0) turbo=on ;;
        1) turbo=off ;;
        *) turbo=unknown ;;
    esac
elif [ -r /sys/devices/system/cpu/cpufreq/boost ]; then
    case $(cat /sys/devices/system/cpu/cpufreq/boost) in
        1) turbo=on ;;
        0) turbo=off ;;
        *) turbo=unknown ;;
    esac
else
    turbo=unknown
fi

# Compiler and optimization flags from the build tree's cache, so an
# entry accidentally measured on a Debug tree is self-incriminating.
cache="$build_dir/CMakeCache.txt"
cache_var() {
    sed -n "s/^$1:[^=]*=//p" "$cache" 2>/dev/null | head -n1
}
build_type=$(cache_var CMAKE_BUILD_TYPE)
build_type=${build_type:-unknown}
case "$build_type" in
    Release) type_flags=$(cache_var CMAKE_CXX_FLAGS_RELEASE) ;;
    RelWithDebInfo) type_flags=$(cache_var CMAKE_CXX_FLAGS_RELWITHDEBINFO) ;;
    Debug) type_flags=$(cache_var CMAKE_CXX_FLAGS_DEBUG) ;;
    *) type_flags= ;;
esac
compiler_flags=$(echo "$(cache_var CMAKE_CXX_FLAGS) $type_flags" \
    | xargs || true)
compiler=$(cache_var CMAKE_CXX_COMPILER)
compiler=${compiler:-unknown}

python3 - "$raw" "$arbiter_raw" "$out_json" "$label" \
    "$cores" "$cpu_model" "$governor" "$turbo" "$build_type" \
    "$compiler" "$compiler_flags" <<'EOF'
import json
import sys

(raw_path, arbiter_path, out_path, label, cores, cpu_model, governor,
 turbo, build_type, compiler, compiler_flags) = sys.argv[1:12]

benchmarks = {}
events_per_sec = None
for path in (raw_path, arbiter_path):
    with open(path) as f:
        raw = json.load(f)
    for b in raw.get("benchmarks", []):
        entry = {"real_time_ns": b["real_time"] * {
            "ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]}
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        if "events/s" in b:
            entry["events_per_second"] = b["events/s"]
        if "flits/s" in b:
            entry["flits_per_second"] = b["flits/s"]
        # Shard-scaling rows (BM_EndToEndFatMeshShards/N[/real_time]):
        # surface the shard count so readers need not parse names.
        parts = b["name"].split("/")
        if parts[0] == "BM_EndToEndFatMeshShards" and len(parts) > 1:
            entry["shards"] = int(parts[1])
        benchmarks[b["name"]] = entry
        if b["name"] == "BM_EndToEndExperiment":
            events_per_sec = b.get("events/s")

try:
    with open(out_path) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {"schema": "mediaworm-bench-kernel-v1",
           "headline": "BM_EndToEndExperiment events_per_second",
           "entries": []}

host = {
    "cores": int(cores),
    "cpu_model": cpu_model,
    "governor": governor,
    "turbo": turbo,
    "build_type": build_type,
    "compiler": compiler,
    "compiler_flags": compiler_flags,
}

# Cross-host comparisons are the main way this trend file misleads:
# warn when the machine state differs from the most recent prior
# entry (the de-facto baseline the new numbers will be read against).
prior = [e for e in doc["entries"] if e["label"] != label]
if prior:
    base = prior[-1].get("host", {})
    for key in ("cpu_model", "cores", "governor", "turbo",
                "build_type", "compiler_flags"):
        theirs = base.get(key)
        ours = host.get(key)
        if theirs is not None and theirs != ours:
            print(f"warning: host {key} differs from baseline entry "
                  f"'{prior[-1]['label']}': {theirs!r} -> {ours!r}; "
                  "events/s ratios across these entries are not "
                  "meaningful", file=sys.stderr)

doc["entries"] = prior
doc["entries"].append({
    "label": label,
    "events_per_second": events_per_sec,
    "host": host,
    "benchmarks": benchmarks,
})

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

print(f"{label}: {events_per_sec:.0f} events/s -> {out_path}")
EOF
