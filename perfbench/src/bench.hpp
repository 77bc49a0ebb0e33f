// bench.hpp — shared pieces of the perfbench workloads: the result record,
// timing and percentile helpers, the traced force rebuild, the kernel peak
// probe, the force-accuracy reference and the in-process query mix.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gravity/evaluator.hpp"
#include "hot/spatial.hpp"
#include "hot/tree.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace perfbench {

using hotlib::Vec3d;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double serve_rate = 1000.0;  // serve_mixed offered load, requests/s (both clients)
};

// Seconds on the steady clock (process-wide origin).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
// Tail of a time-ordered sample: the median over consecutive windows of
// each window's q-percentile, a window holding kTailBeyond / (1 - q)
// samples (2 000 for p99, 20 000 for p999) so that kTailBeyond samples lie
// beyond its percentile. One stall then moves one window, not the run.
inline constexpr double kTailBeyond = 20.0;
double windowed_percentile(const std::vector<double>& v, double q);
template <class T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}
double mean(const std::vector<double>& v);
double peak_rss_mb();

// One run's result: metrics in emission order, correctness and op counts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Human-readable context line ("# key: value") printed before the result.
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  void check(bool ok, const std::string& what);  // a failed check = failed op

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Prints the stamps, then the JSON result as the last line of stdout.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  bool correct_ = true;
};

// Host stamp shared by every workload: nproc, kernel path, pool lanes, seed.
void stamp_host(Report& r, const Args& a);

// ---- traced force evaluation ------------------------------------------------

// Per-lane timers and counts of one traced tree_forces rebuild. Lane 0 is the
// calling thread, lane w+1 the pool worker w.
struct LaneTimes {
  double walk_s = 0, gather_s = 0, kernel_s = 0, chunk_s = 0;
  hotlib::InteractionTally tally;
  std::uint64_t groups = 0, list_bodies = 0, list_cells = 0;
  double gather_bytes = 0;
  LaneTimes& operator+=(const LaneTimes& o);
};

struct ForceTrace {
  std::vector<LaneTimes> lanes;
  double wall_s = 0;  // wall time of the whole rebuild
  double loop_s = 0;  // the calling lane's time inside the group loop (its chunks + pool wait)
  LaneTimes total() const;
};

// gravity::tree_forces rebuilt from its public pieces
// (hot::build_interaction_lists, gravity::gather_interaction_batch,
// gravity::batch_pp/batch_pc) with the same leaf groups, the same
// parallel_for grain and the same per-body arithmetic, so acc/pot/work are
// bit-identical to tree_forces, plus per-lane walk/gather/kernel timers.
hotlib::InteractionTally traced_tree_forces(const hotlib::hot::Tree& tree,
                                            std::span<const Vec3d> pos,
                                            std::span<const double> mass,
                                            const hotlib::gravity::TreeForceConfig& cfg,
                                            std::span<Vec3d> acc, std::span<double> pot,
                                            std::span<double> work, ForceTrace& trace);

// Walk/gather/kernel split of point queries (serve_mixed's exec layer), rebuilt
// from the same public pieces gravity::evaluate_at uses; bit-identical to it.
void traced_point_eval(const hotlib::hot::Tree& tree, std::span<const Vec3d> src_pos,
                       std::span<const double> src_mass,
                       const hotlib::gravity::TreeForceConfig& cfg,
                       std::span<const Vec3d> points, std::span<Vec3d> acc,
                       std::span<double> pot, LaneTimes& lane);

// Kernel peak: batch_pp + batch_pc over one cache-resident list of fixed
// length (kPeakListBodies bodies + kPeakListCells quadrupole cells), `sinks`
// sinks split over the global pool. Returns the interactions evaluated.
inline constexpr std::size_t kPeakListBodies = 512;
inline constexpr std::size_t kPeakListCells = 512;
std::uint64_t kernel_probe(std::size_t sinks, std::uint64_t seed);

// Force accuracy over `sample`: RMS |a_tree - a_direct| over RMS |a_direct|
// (the normalisation bench_accuracy and the tests use; a per-body ratio is
// dominated by the few bodies near the centre where |a| ~ 0). The reference
// is the direct sum over all of (pos, mass) with the same softening —
// gravity::direct_forces's arithmetic for those sinks.
double rms_rel_force_error(std::span<const Vec3d> pos, std::span<const double> mass,
                           double softening, double G, std::span<const Vec3d> acc_tree,
                           std::span<const std::uint32_t> sample);
std::vector<std::uint32_t> sample_indices(std::size_t n, std::size_t k, std::uint64_t seed);

// ---- in-process query mix (tree_step, let_step) -----------------------------

// The serving mix without the wire: 70 : 12 : 12 point (4 positions) /
// region / kNN (k = 8) queries, issued as direct library calls
// (gravity::evaluate_at, hot::collect_in_box, hot::knn) against one tree.
// Region and kNN answers are checked against a brute-force scan every
// kVerifyEvery-th query.
struct QueryShape {
  Vec3d center;  // query positions are drawn around here
  double scale;  // ... within this radius
};

class DirectQueries {
 public:
  explicit DirectQueries(std::uint64_t seed) : rng_(seed) {}
  // Runs `count` queries; appends each latency (us) to `lat_us`. Returns the
  // number of failed verifications.
  std::uint64_t run(const hotlib::hot::Tree& tree, std::span<const Vec3d> pos,
                    std::span<const double> mass,
                    const hotlib::gravity::TreeForceConfig& cfg, const QueryShape& shape,
                    std::size_t count, std::vector<double>& lat_us);
  static constexpr std::size_t kVerifyEvery = 16;

 private:
  hotlib::Xoshiro256ss rng_;
  std::uint64_t issued_ = 0;
  std::vector<Vec3d> acc_, pts_;
  std::vector<double> pot_;
  std::vector<std::uint32_t> hits_;
  std::vector<hotlib::hot::Neighbor> nn_;
};

// The end-to-end metrics, in BENCHMARK.json order. `queries_per_s` is
// `queries` completed over `query_window_s`. Stamps the sample count behind
// every percentile.
struct EndToEnd {
  std::vector<double> setup_s;   // one per set-up repetition (median reported)
  std::vector<double> step_s;    // one per measured step
  double force_err_rms = 0;
  std::vector<double> query_us;  // one per measured request, in time order
  double queries = 0;
  double query_window_s = 0;
};
void emit_end_to_end(Report& r, const EndToEnd& e);

// Per-workload entry points.
int run_tree_step(const Args& a);
int run_let_step(const Args& a);
int run_serve_mixed(const Args& a);

// Names and units of every per-layer metric, in emission order; a traced
// run prints all of them (0 where the workload does not run that layer).
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

// Per-layer values keyed by name; emitted in per_layer_metrics() order.
class LayerValues {
 public:
  void set(const std::string& name, double v);
  void emit(Report& r) const;

 private:
  std::vector<std::pair<std::string, double>> v_;
};

}  // namespace perfbench
