#!/bin/sh
# update_baselines.sh — regenerate the committed perf-gate baselines.
#
#   tools/update_baselines.sh [build-dir] [baselines-dir]
#
# Runs every bench harness at tiny sizes (HOTLIB_BENCH_TINY=1) and copies the
# BENCH_<name>.json reports into baselines-dir (default bench/baselines/).
# Run this after an *intentional* behaviour change (new counter, different
# traversal, changed problem sizes) into a separate dir, review the diff with
#   build/tools/hotlib-analyze diff bench/baselines/BENCH_x.json new/BENCH_x.json
# and commit only the baselines whose gated values moved: host-timed fields
# (wall times, the timeseries) differ on every run. The perf-gate ctest
# slice holds every future run to these files.
set -eu

build=${1:-build}
dest=${2:-$(dirname "$0")/../bench/baselines}

if [ ! -d "$build/bench" ]; then
  echo "update_baselines: $build/bench not found (configure + build first)" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

names="nsquared treecode loki vortex sc96 npb accuracy comm price kernels abm faults keys scaling serve"
for name in $names; do
  exe="$build/bench/bench_$name"
  if [ ! -x "$exe" ]; then
    echo "update_baselines: missing $exe" >&2
    exit 2
  fi
  echo "update_baselines: running bench_$name (tiny)"
  # Baselines are recorded single-threaded (stamped threads=1 below); the
  # perf-gate runs at the host's lane count. Exact counters are
  # thread-count-invariant, and the banded modelled and traffic quantities
  # stay inside their bands at other lane counts (bench/CMakeLists.txt).
  HOTLIB_BENCH_TINY=1 HOTLIB_THREADS=1 HOTLIB_REPORT_DIR="$tmp" "$exe" > /dev/null
done

# Stamp the kernel path the benches ran with (scalar or avx2, after any
# HOTLIB_SIMD override) into each report, so a baseline records which
# dispatch produced it. The stamp is provenance only — check ignores it.
analyze="$build/tools/hotlib-analyze"
if [ ! -x "$analyze" ]; then
  echo "update_baselines: missing $analyze" >&2
  exit 2
fi
kpath=$("$build/bench/bench_kernels" --print-kernel-path)
for name in $names; do
  "$analyze" stamp "$tmp/BENCH_$name.json" "kernel_path=$kpath"
  "$analyze" stamp "$tmp/BENCH_$name.json" "threads=1"
done

mkdir -p "$dest"
for name in $names; do
  cp "$tmp/BENCH_$name.json" "$dest/BENCH_$name.json"
done
echo "update_baselines: wrote $(echo "$names" | wc -w) baselines to $dest (kernel_path=$kpath)"
