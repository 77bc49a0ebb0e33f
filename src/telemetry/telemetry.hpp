// telemetry.hpp — umbrella header for the telemetry subsystem.
//
// Per-rank tracing (ring buffer + RAII spans over wall and parc virtual
// time), the unified counter registry, and the machine-readable exporters
// (Chrome trace_event timelines, BENCH_*.json run reports). See
// docs/telemetry.md.
#pragma once

#include "telemetry/counters.hpp"  // IWYU pragma: export
#include "telemetry/histogram.hpp" // IWYU pragma: export
#include "telemetry/json.hpp"      // IWYU pragma: export
#include "telemetry/report.hpp"    // IWYU pragma: export
#include "telemetry/sample.hpp"    // IWYU pragma: export
#include "telemetry/trace.hpp"     // IWYU pragma: export
