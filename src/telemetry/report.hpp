// report.hpp — machine-readable run artefacts.
//
// Two exporters over the trace registry (trace.hpp):
//
//  * chrome_trace_json(): the Chrome trace_event JSON-array format — open in
//    chrome://tracing or https://ui.perfetto.dev. One timeline row per rank;
//    spans are 'X' complete events, fault/retransmit markers are 'i'
//    instants; every event carries the parc virtual time as args.
//
//  * RunReport / run_report_json(): the per-run summary every bench harness
//    writes as BENCH_<name>.json — per-phase wall/virtual times with
//    across-rank imbalance, the full counter rollup, interaction/flop
//    totals and Gflop rates. Schema id "hotlib-run-report-v1"; the
//    perf-gate ctest slice checks each file against the schema.
//
// Session is the harness entry point: constructing one resets + enables the
// registry and attaches the calling thread; destruction (or finish())
// writes BENCH_<name>.json — and, when HOTLIB_TRACE is set, the Chrome
// trace — into HOTLIB_REPORT_DIR or the working directory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::telemetry {

struct PhaseReport {
  std::string name;
  double wall_seconds = 0.0;   // summed over ranks' top-level spans
  double virt_seconds = 0.0;   // parc virtual time, summed over ranks
  double max_rank_wall = 0.0;  // slowest rank's total for this phase
  double mean_rank_wall = 0.0;
  std::uint64_t calls = 0;
  // Load-balance figure of merit: max/mean over the ranks that ran the
  // phase (1.0 = perfectly balanced, like the paper's efficiency tables).
  double imbalance() const {
    return mean_rank_wall > 0 ? max_rank_wall / mean_rank_wall : 1.0;
  }
};

struct RankReport {
  int rank = 0;
  double wall_seconds = 0.0;  // sum of this rank's top-level phase spans
  double virt_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
};

// One rank's health-sampler series (sample.hpp): every snapshot the rank's
// channel committed, oldest first, plus the final decimation stride.
struct RankSeries {
  int rank = 0;
  std::uint64_t stride_ticks = 0;
  std::vector<HealthSample> samples;
};

struct RunReport {
  std::string name;          // harness name, e.g. "treecode"
  int nranks = 0;            // distinct rank ids seen
  double wall_seconds = 0.0;      // harness wall time (Session lifetime)
  double modelled_seconds = 0.0;  // harness-supplied virtual makespan (0 = n/a)
  std::vector<PhaseReport> phases;  // only phases that actually ran
  std::vector<RankReport> ranks;
  std::vector<RankSeries> timeseries;  // ranks that committed >= 1 sample
  CounterBlock counters;
  std::map<std::string, double> metrics;  // harness-specific extras

  std::uint64_t interactions() const { return counters.interactions(); }
  double flops() const { return counters.flops(); }
  // Aggregate rate over the harness wall time (0 when nothing was counted).
  double gflops_wall() const {
    return wall_seconds > 0 ? flops() / wall_seconds / 1e9 : 0.0;
  }
};

// Build a report from the current registry contents. `wall_seconds` is the
// harness's own elapsed time (phases may cover only part of it).
RunReport build_run_report(const std::string& name, double wall_seconds);

std::string run_report_json(const RunReport& r);
std::string chrome_trace_json();

// Write `text` to path; returns false (and keeps going) on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

// True when HOTLIB_BENCH_TINY is set to a non-empty, non-"0" value: bench
// harnesses shrink to tiny problem sizes (the perf-gate ctest slice).
bool tiny_run();

class Session {
 public:
  // Resets the registry, enables collection (unless HOTLIB_TELEMETRY=0) and
  // attaches the calling thread as rank 0.
  explicit Session(std::string name);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Attach a harness-specific scalar to the report ("gflops_model", ...).
  void metric(const std::string& key, double value);
  // The modelled (virtual-time) makespan, when the harness ran a machine model.
  void set_modelled_seconds(double s);

  // Build + write BENCH_<name>.json (and the Chrome trace when HOTLIB_TRACE
  // is set); called by the destructor if the harness didn't. Returns the
  // report for harnesses that want to print from it.
  RunReport finish();

 private:
  std::string name_;
  std::map<std::string, double> metrics_;
  double modelled_seconds_ = 0.0;
  double wall0_ = 0.0;
  bool finished_ = false;
};

}  // namespace hotlib::telemetry
