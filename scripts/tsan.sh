#!/bin/sh
# tsan.sh — build and run the shared-memory parallelism tests under
# ThreadSanitizer: the task-pool unit/stress suite, the bit-exact
# determinism sweep, the cell index (four threads sharing one built,
# read-only table, whose find must write nothing), and the serving layer's
# concurrent tests — query vs stepping, the idle pump lending itself to the
# pool, plus the lock-free metrics-scrape path (atomic counter reads and
# seqlock gauge snapshots racing live writers) (ctest label `tsan`, see
# tests/CMakeLists.txt).
#
#   scripts/tsan.sh [build-dir]
#
# Uses a dedicated build dir (default build-tsan) — the sanitizer flavor is
# pinned per build dir by the HOTLIB_SANITIZE_FLAVOR guard in CMakeLists.txt,
# so TSan objects never mix with the regular build/. Bench and examples are
# skipped: TSan's ~5-15x slowdown buys nothing there.
#
# HOTLIB_THREADS is forced above 1 so the parallel paths actually run —
# on a single-core host the pool would otherwise default to serial and the
# sanitizer would have nothing to watch.
set -eu

build=${1:-build-tsan}
src=$(dirname "$0")/..

cmake -B "$build" -S "$src" \
  -DHOTLIB_SANITIZE=thread \
  -DHOTLIB_BUILD_BENCH=OFF \
  -DHOTLIB_BUILD_EXAMPLES=OFF
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" \
  --target test_task_pool test_parallel test_hash_table test_serve_concurrent
HOTLIB_THREADS=${HOTLIB_THREADS:-4} \
  ctest --test-dir "$build" -L tsan --output-on-failure
