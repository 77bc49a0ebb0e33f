// analyze.hpp — perf-analysis library behind the hotlib-analyze CLI.
//
// Loads hotlib-run-report-v1 JSON files (the BENCH_<name>.json every bench
// harness writes) into a flat Report, and implements the three CLI verbs:
//
//   render_report  paper-style tables: per-phase wall/virtual time with
//                  max/mean imbalance, Mflop/s, message/byte totals, and
//                  queue-depth / hash-occupancy percentiles from the
//                  health-sampler timeseries.
//   render_diff    side-by-side comparison of two reports with absolute and
//                  relative deltas.
//   check_report   compare a report against a committed baseline under a
//                  per-metric tolerance policy; the perf-gate ctest slice is
//                  built on this.
//
// Lives in tools/ (not src/) because it is a consumer of the library's
// public report format, exactly like an external analysis script would be —
// but it links the same strict JSON parser so reports and baselines are
// validated, never fuzzily re-parsed.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace hotlib::tools {

// Flattened view of one hotlib-run-report-v1 document.
struct Report {
  std::string path;  // where it was loaded from (for messages)
  std::string name;
  int nranks = 0;
  double wall_seconds = 0;
  double modelled_seconds = 0;
  double interactions = 0;
  double flops = 0;
  double gflops_wall = 0;

  struct Phase {
    std::string name;
    double wall_seconds = 0;
    double virt_seconds = 0;
    double max_rank_wall = 0;
    double mean_rank_wall = 0;
    double imbalance = 1.0;
    double calls = 0;
  };
  std::vector<Phase> phases;

  struct Series {
    int rank = 0;
    double stride_ticks = 0;
    std::vector<double> tick, wall_s, virt_s;
    std::map<std::string, std::vector<double>> gauges;
  };
  std::vector<Series> timeseries;

  std::map<std::string, double> counters;
  std::map<std::string, double> metrics;

  const Phase* phase(const std::string& name) const;
  double counter(const std::string& name) const;  // 0 when absent
};

// Strict-parse `path` and check the run-report schema: every field a Report
// holds is present and in range (nranks >= 1, totals and times >= 0, phase
// calls >= 1 and imbalance >= 1), counters and metrics are objects of
// numbers, and the timeseries has at least one rank series whose tick,
// wall_s, virt_s and gauge tracks all have one non-zero length. On failure
// returns false and fills `err` with the first fault.
bool load_report(const std::string& path, Report& out, std::string& err);

// Splice a top-level string entry `"key": "value"` into the report at
// `path`, replacing a previous stamp of the same key. The stamped document
// is strict-parsed before the file is rewritten, so a bad key/value can
// never corrupt a baseline. Stamps live outside counters/metrics and are
// ignored by check_report — provenance annotations (e.g. the active kernel
// path), not gated quantities.
bool stamp_report(const std::string& path, const std::string& key,
                  const std::string& value, std::string& err);

std::string render_report(const Report& r);
std::string render_diff(const Report& a, const Report& b);

// Tolerance policy for check_report. The gate checks only quantities a run
// determines. Deterministic counters (interaction tallies, record counts,
// hash statistics), nranks, interactions, flops and phase call counts must
// match the baseline exactly. Traffic counters (message/byte/ack/retransmit
// totals), modelled (LogP) times and other harness metrics depend on thread
// scheduling and get fixed bands. Host-timed quantities (wall times, and
// metrics named *_per_s, *_per_sec, *_us or *_ns) are not bounded: such a
// metric must be present and finite, nothing more. Time is judged by
// repeated runs (perfbench, scripts/perf_pairs.py), not by this gate.
struct CheckPolicy {
  // Per-key overrides: full key ("counters.bytes_sent", "interactions") ->
  // relative tolerance, from --tol=KEY=REL. REL > 0 on an exact key turns it
  // into a band; on a banded key REL replaces the default relative band.
  std::map<std::string, double> overrides;
};

struct CheckResult {
  int checked = 0;  // number of individual comparisons made
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

// Holds `r` to `base` under `policy`. `r` must also carry every registered
// counter and, in each rank series, one track per registered gauge; `base`
// may predate the newest ones.
CheckResult check_report(const Report& r, const Report& base, const CheckPolicy& policy);

// Percentile over an unsorted sample set (nearest-rank, q in [0,1]).
double percentile(std::vector<double> values, double q);

}  // namespace hotlib::tools
