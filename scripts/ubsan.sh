#!/bin/sh
# ubsan.sh — build the whole tree under AddressSanitizer plus
# UndefinedBehaviorSanitizer and run the test suite there. Any report
# aborts the test that triggered it: -fno-sanitize-recover turns UBSan
# findings into failures, and -D_GLIBCXX_ASSERTIONS adds libstdc++'s
# bounds and precondition checks.
#
#   scripts/ubsan.sh [build-dir]
#
# Uses a dedicated build dir (default build-ubsan) — the sanitizer flavor is
# pinned per build dir by the HOTLIB_SANITIZE_FLAVOR guard in CMakeLists.txt.
# UBSan rides on the existing HOTLIB_SANITIZE=address switch through
# CMAKE_CXX_FLAGS. Leak checking is off: the suite's process-lifetime
# singletons (the global task pool, the telemetry registry) are reclaimed
# by exit, not by destructors. Warnings are errors here too, so a warning
# that only this build's instrumentation brings out fails the script.
set -eu

build=${1:-build-ubsan}
src=$(dirname "$0")/..

cmake -B "$build" -S "$src" \
  -DHOTLIB_SANITIZE=address -DHOTLIB_WERROR=ON \
  "-DCMAKE_CXX_FLAGS=-fsanitize=undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)"
ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=0} \
UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1} \
  ctest --test-dir "$build" --output-on-failure \
  -j "$(nproc 2>/dev/null || echo 4)"
