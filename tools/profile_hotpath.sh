#!/usr/bin/env bash
# Profiles the simulator hot path with Linux perf and prints the
# hottest symbols, using the `profile` CMake preset (Release
# optimization + -fno-omit-frame-pointer, so --call-graph fp resolves
# cheap, accurate stacks through the kernel/router serve loops).
# Where perf is not installed it falls back to gprofng clock
# profiling (`gprofng collect app -p high`), prints the function
# listing and the number of samples behind it, and warns when there
# are too few to rank symbols reliably.
#
# usage: tools/profile_hotpath.sh [bench-binary] [bench-args...]
#
#   bench-binary  Executable to profile, relative to the profile
#                 build tree or absolute. Default:
#                 bench/micro_kernel, filtered to the end-to-end
#                 experiment (the headline workload).
#
# Examples:
#   tools/profile_hotpath.sh
#   tools/profile_hotpath.sh bench/micro_kernel \
#       --benchmark_filter=BM_EndToEndExperiment
#   tools/profile_hotpath.sh tools/mediaworm_sim \
#       --loads 0.6 --frames 2 --scale 0.05
#
# The perf.data file (or the gprofng hotpath.er experiment) is left in
# the profile build tree for interactive drill-down with
# `perf report` (or `gprofng display text`).

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir="$repo_root/build-profile"

# Fewer clock samples than this leave the per-symbol shares too
# coarse to rank (some VMs deliver far fewer than -p high asks for).
min_samples=1000

if command -v perf > /dev/null; then
    profiler=perf
elif command -v gprofng > /dev/null; then
    profiler=gprofng
else
    echo "error: neither perf nor gprofng is on PATH" >&2
    exit 1
fi

# Configure + build via the preset on first use (cmake >= 3.21).
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake --preset profile -S "$repo_root"
fi
cmake --build --preset profile -j "$(nproc)"

binary=${1:-bench/micro_kernel}
shift || true
case "$binary" in
    /*) ;;
    *) binary="$build_dir/$binary" ;;
esac
if [ ! -x "$binary" ]; then
    echo "error: $binary not found or not executable" >&2
    exit 1
fi

args=("$@")
if [ ${#args[@]} -eq 0 ] \
       && [[ "$binary" == */bench/micro_kernel ]]; then
    args=(--benchmark_filter='BM_EndToEndExperiment$'
          --benchmark_min_time=2)
fi

if [ "$profiler" = perf ]; then
    data="$build_dir/perf.data"
    perf record --call-graph fp -F 997 -o "$data" -- \
        "$binary" "${args[@]}"

    echo
    echo "=== hottest symbols (self time) ==="
    perf report -i "$data" --stdio --no-children \
        --percent-limit 1 2> /dev/null | head -40
    echo
    echo "perf.data: $data (drill down with: perf report -i $data)"
    exit 0
fi

experiment="$build_dir/hotpath.er"
listing="$build_dir/hotpath.functions.txt"
rm -rf "$experiment"
gprofng collect app -p high -o "$experiment" -- "$binary" "${args[@]}"
gprofng display text -functions "$experiment" > "$listing"

echo
echo "=== hottest symbols (exclusive CPU time, gprofng) ==="
head -40 "$listing"

# Samples = total CPU time / clock-profiling interval (the
# experiment's log records the interval in microseconds).
interval_us=$(grep -ao 'ptimer="[0-9]*"' "$experiment/log.xml" \
    | grep -o '[0-9][0-9]*' | head -n1)
total_s=$(awk '$NF == "<Total>" { print $1; exit }' "$listing")
samples=$(awk -v t="${total_s:-0}" -v i="${interval_us:-1000}" \
    'BEGIN { printf "%d", t * 1e6 / i + 0.5 }')
echo
echo "samples: $samples (one per ${interval_us:-?} us of CPU time)"
if [ "$samples" -lt "$min_samples" ]; then
    echo "warning: only $samples samples (< $min_samples); shares are" \
         "too coarse to rank symbols - profile a longer run" >&2
fi
echo "experiment: $experiment (drill down with:" \
     "gprofng display text -functions $experiment)"
