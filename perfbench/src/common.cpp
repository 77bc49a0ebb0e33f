#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "gravity/batch.hpp"
#include "gravity/evaluate.hpp"
#include "hot/traverse.hpp"
#include "util/task_pool.hpp"

namespace perfbench {

using namespace hotlib;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double windowed_percentile(const std::vector<double>& v, double q) {
  const auto window = static_cast<std::size_t>(std::ceil(kTailBeyond / (1.0 - q)));
  const std::size_t nwin = std::max<std::size_t>(1, v.size() / window);
  std::vector<double> per_window;
  for (std::size_t k = 0; k < nwin; ++k) {
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(k * v.size() / nwin);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>((k + 1) * v.size() / nwin);
    per_window.push_back(percentile(std::vector<double>(lo, hi), q));
  }
  return median(per_window);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, value);
}

void Report::stamp(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  stamp(key, std::string(buf));
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::print() const {
  for (const auto& [k, v] : stamps_) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

void stamp_host(Report& r, const Args& a) {
  r.stamp("workload", a.workload);
  r.stamp("seed", std::to_string(a.seed));
  r.stamp("seconds", a.seconds);
  r.stamp("trace", a.trace ? "1" : "0");
  r.stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.stamp("batch_path", gravity::batch_path_name());
  r.stamp("HOTLIB_THREADS", std::to_string(util::TaskPool::global().concurrency()));
}

void emit_end_to_end(Report& r, const EndToEnd& e) {
  r.stamp("setup_s samples", static_cast<double>(e.setup_s.size()));
  if (!e.setup_s.empty()) r.stamp("setup_cold_s", e.setup_s.front());
  r.stamp("step_s samples", static_cast<double>(e.step_s.size()));
  r.stamp("query_us samples", static_cast<double>(e.query_us.size()));
  r.check(!e.step_s.empty() && !e.query_us.empty(), "no steps or no queries measured");
  r.metric("setup_s", median(e.setup_s), "s");
  r.metric("step_s_p50", percentile(e.step_s, 0.50), "s");
  r.metric("step_s_p90", percentile(e.step_s, 0.90), "s");
  r.metric("force_err_rms", e.force_err_rms, "ratio");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("query_us_p50", percentile(e.query_us, 0.50), "us");
  r.metric("queries_per_s", e.query_window_s > 0 ? e.queries / e.query_window_s : 0.0,
           "1/s");
}

// ---- traced force evaluation ------------------------------------------------

LaneTimes& LaneTimes::operator+=(const LaneTimes& o) {
  walk_s += o.walk_s;
  gather_s += o.gather_s;
  kernel_s += o.kernel_s;
  chunk_s += o.chunk_s;
  tally += o.tally;
  groups += o.groups;
  list_bodies += o.list_bodies;
  list_cells += o.list_cells;
  gather_bytes += o.gather_bytes;
  return *this;
}

LaneTimes ForceTrace::total() const {
  LaneTimes t;
  for (const LaneTimes& l : lanes) t += l;
  return t;
}

namespace {

// Bytes one gather writes: x/y/z/m per body, com/mass (+ 6 quad lanes) per cell.
double gathered_bytes(const hot::InteractionLists& lists, bool quad) {
  return 8.0 * (4.0 * static_cast<double>(lists.bodies.size()) +
                (quad ? 10.0 : 4.0) * static_cast<double>(lists.cells.size()));
}

}  // namespace

InteractionTally traced_tree_forces(const hot::Tree& tree, std::span<const Vec3d> pos,
                                    std::span<const double> mass,
                                    const gravity::TreeForceConfig& cfg,
                                    std::span<Vec3d> acc, std::span<double> pot,
                                    std::span<double> work, ForceTrace& trace) {
  const double t_begin = now_s();
  const double eps2 = cfg.softening * cfg.softening;
  const auto& cells = tree.cells();
  const std::vector<std::uint32_t> leaves = hot::leaf_indices(tree);
  util::TaskPool& pool = util::TaskPool::global();
  trace.lanes.assign(static_cast<std::size_t>(pool.concurrency()), LaneTimes{});

  struct Scratch {
    hot::InteractionLists lists;
    gravity::InteractionBatch batch;
  };
  std::vector<Scratch> scratch(trace.lanes.size());

  // tree_forces's do_group, line for line, with timers between the stages.
  const auto do_group = [&](std::uint32_t li, Scratch& s, LaneTimes& lt) {
    const double t0 = now_s();
    hot::build_interaction_lists(tree, li, cfg.mac, s.lists, lt.tally);
    const double t1 = now_s();
    gravity::gather_interaction_batch(tree, s.lists, pos, mass, cfg.mac.quadrupole,
                                      s.batch);
    const double t2 = now_s();
    const hot::Cell& group = cells[li];
    for (std::uint32_t b = group.body_begin; b < group.body_begin + group.body_count; ++b) {
      const std::uint32_t i = tree.order()[b];
      Vec3d a{};
      double p = 0;
      const std::size_t self = s.lists.self_begin + (b - group.body_begin);
      gravity::batch_pp(s.batch, pos[i], eps2, self, a, p);
      gravity::batch_pc(s.batch, pos[i], eps2, a, p);
      acc[i] += cfg.G * a;
      pot[i] += cfg.G * p;
      const std::uint64_t count = s.lists.bodies.size() - 1 + s.lists.cells.size();
      lt.tally.body_body += s.lists.bodies.size() - 1;
      lt.tally.body_cell += s.lists.cells.size();
      if (!work.empty()) work[i] = static_cast<double>(count);
    }
    const double t3 = now_s();
    lt.walk_s += t1 - t0;
    lt.gather_s += t2 - t1;
    lt.kernel_s += t3 - t2;
    ++lt.groups;
    lt.list_bodies += s.lists.bodies.size();
    lt.list_cells += s.lists.cells.size();
    lt.gather_bytes += gathered_bytes(s.lists, cfg.mac.quadrupole);
  };

  const double loop0 = now_s();
  if (pool.concurrency() == 1 || leaves.size() < 2) {
    for (std::uint32_t li : leaves) do_group(li, scratch[0], trace.lanes[0]);
    trace.lanes[0].chunk_s += now_s() - loop0;
  } else {
    // A lane runs one chunk at a time, so per-lane scratch is never shared.
    const std::size_t grain = std::max<std::size_t>(
        1, leaves.size() / (static_cast<std::size_t>(pool.concurrency()) * 8));
    pool.parallel_for(leaves.size(), grain, [&](std::size_t lo, std::size_t hi) {
      const double c0 = now_s();
      const auto lane = static_cast<std::size_t>(util::TaskPool::current_worker() + 1);
      for (std::size_t g = lo; g < hi; ++g) do_group(leaves[g], scratch[lane], trace.lanes[lane]);
      trace.lanes[lane].chunk_s += now_s() - c0;
    });
  }
  const double loop1 = now_s();
  trace.loop_s = loop1 - loop0;
  trace.wall_s = loop1 - t_begin;
  return trace.total().tally;
}

void traced_point_eval(const hot::Tree& tree, std::span<const Vec3d> src_pos,
                       std::span<const double> src_mass,
                       const gravity::TreeForceConfig& cfg, std::span<const Vec3d> points,
                       std::span<Vec3d> acc, std::span<double> pot, LaneTimes& lt) {
  const double eps2 = cfg.softening * cfg.softening;
  hot::InteractionLists lists;
  gravity::InteractionBatch batch;
  for (std::size_t q = 0; q < points.size(); ++q) {
    const double t0 = now_s();
    hot::build_point_interaction_lists(tree, points[q], cfg.mac, lists, lt.tally);
    const double t1 = now_s();
    gravity::gather_interaction_batch(tree, lists, src_pos, src_mass, cfg.mac.quadrupole,
                                      batch);
    const double t2 = now_s();
    Vec3d a{};
    double p = 0;
    gravity::batch_pp(batch, points[q], eps2, gravity::kNoSelf, a, p);
    gravity::batch_pc(batch, points[q], eps2, a, p);
    acc[q] = cfg.G * a;
    pot[q] = cfg.G * p;
    const double t3 = now_s();
    lt.tally.body_body += lists.bodies.size();
    lt.tally.body_cell += lists.cells.size();
    lt.walk_s += t1 - t0;
    lt.gather_s += t2 - t1;
    lt.kernel_s += t3 - t2;
    ++lt.groups;
    lt.list_bodies += lists.bodies.size();
    lt.list_cells += lists.cells.size();
    lt.gather_bytes += gathered_bytes(lists, cfg.mac.quadrupole);
  }
}

std::uint64_t kernel_probe(std::size_t sinks, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  gravity::InteractionBatch batch;
  batch.use_quad = true;
  for (std::size_t j = 0; j < kPeakListBodies; ++j)
    batch.add_body(rng.in_sphere(0.5), rng.uniform(0.5, 1.5));
  for (std::size_t j = 0; j < kPeakListCells; ++j) {
    std::array<double, 6> q{};
    for (double& x : q) x = rng.uniform(-0.01, 0.01);
    const Vec3d dir = rng.in_sphere(1.0);
    batch.add_cell(dir * (3.0 / std::max(norm(dir), 1e-3)), rng.uniform(0.5, 1.5), q);
  }
  std::vector<Vec3d> sink(sinks);
  for (Vec3d& s : sink) s = rng.in_sphere(0.5);
  std::vector<double> out(sinks);
  util::TaskPool& pool = util::TaskPool::global();
  const std::size_t grain = std::max<std::size_t>(
      1, sinks / (static_cast<std::size_t>(pool.concurrency()) * 8));
  pool.parallel_for(sinks, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      Vec3d a{};
      double p = 0;
      gravity::batch_pp(batch, sink[i], 1e-4, gravity::kNoSelf, a, p);
      gravity::batch_pc(batch, sink[i], 1e-4, a, p);
      out[i] = a.x + a.y + a.z + p;
    }
  });
  double sum = 0;
  for (double x : out) sum += x;
  if (!std::isfinite(sum)) return 0;  // keeps `out` observably used
  return static_cast<std::uint64_t>(sinks) * (kPeakListBodies + kPeakListCells);
}

double rms_rel_force_error(std::span<const Vec3d> pos, std::span<const double> mass,
                           double softening, double G, std::span<const Vec3d> acc_tree,
                           std::span<const std::uint32_t> sample) {
  gravity::InteractionBatch batch;
  batch.reserve_bodies(pos.size());
  for (std::size_t j = 0; j < pos.size(); ++j) batch.add_body(pos[j], mass[j]);
  const double eps2 = softening * softening;
  std::vector<double> err2(sample.size()), ref2(sample.size());
  util::TaskPool::global().parallel_for(sample.size(), 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = sample[k];
      Vec3d a{};
      double p = 0;
      gravity::batch_pp(batch, pos[i], eps2, i, a, p);  // slot == index: skip self
      a = G * a;
      err2[k] = norm2(acc_tree[i] - a);
      ref2[k] = norm2(a);
    }
  });
  double e = 0, r = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    e += err2[k];
    r += ref2[k];
  }
  return r > 0 ? std::sqrt(e / r) : 0.0;
}

std::vector<std::uint32_t> sample_indices(std::size_t n, std::size_t k, std::uint64_t seed) {
  k = std::min(k, n);
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k == 0) return out;
  const std::size_t offset = static_cast<std::size_t>(SplitMix64(seed).next() % n);
  for (std::size_t j = 0; j < k; ++j)
    out.push_back(static_cast<std::uint32_t>((offset + j * n / k) % n));
  return out;
}

// ---- in-process query mix ---------------------------------------------------

std::uint64_t DirectQueries::run(const hot::Tree& tree, std::span<const Vec3d> pos,
                                 std::span<const double> mass,
                                 const gravity::TreeForceConfig& cfg,
                                 const QueryShape& shape, std::size_t count,
                                 std::vector<double>& lat_us) {
  std::uint64_t bad = 0;
  pts_.resize(4);
  acc_.resize(4);
  pot_.resize(4);
  for (std::size_t q = 0; q < count; ++q) {
    const bool verify = (issued_++ % kVerifyEvery) == 0;
    const double r = rng_.uniform() * 0.94;  // point : region : knn = 70 : 12 : 12
    if (r < 0.70) {
      for (Vec3d& p : pts_) p = shape.center + rng_.in_sphere(1.2 * shape.scale);
      const double t0 = now_s();
      gravity::evaluate_at(tree, pos, mass, cfg, pts_, acc_, pot_);
      lat_us.push_back((now_s() - t0) * 1e6);
    } else if (r < 0.82) {
      const Vec3d c = shape.center + rng_.in_sphere(0.8 * shape.scale);
      const double h = rng_.uniform(0.05, 0.4) * shape.scale;
      const hot::Aabb box{{c.x - h, c.y - h, c.z - h}, {c.x + h, c.y + h, c.z + h}};
      const double t0 = now_s();
      hot::collect_in_box(tree, pos, box, hits_);
      lat_us.push_back((now_s() - t0) * 1e6);
      if (verify) {
        std::vector<std::uint32_t> got = hits_, want;
        for (std::uint32_t i = 0; i < pos.size(); ++i)
          if (box.contains(pos[i])) want.push_back(i);
        std::sort(got.begin(), got.end());
        bad += got != want;
      }
    } else {
      const Vec3d p = shape.center + rng_.in_sphere(shape.scale);
      const double t0 = now_s();
      hot::knn(tree, pos, p, 8, nn_);
      lat_us.push_back((now_s() - t0) * 1e6);
      if (verify) {
        std::vector<hot::Neighbor> all(pos.size());
        for (std::uint32_t i = 0; i < pos.size(); ++i) {
          const Vec3d d = pos[i] - p;
          all[i] = {i, dot(d, d)};
        }
        const std::size_t k = std::min<std::size_t>(8, all.size());
        std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                          [](const hot::Neighbor& a, const hot::Neighbor& b) {
                            return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.index < b.index;
                          });
        bool same = nn_.size() == k;
        for (std::size_t j = 0; same && j < k; ++j)
          same = nn_[j].index == all[j].index && nn_[j].dist2 == all[j].dist2;
        bad += !same;
      }
    }
  }
  return bad;
}

// ---- per-layer metric table -------------------------------------------------

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"build.s", "s"},
      {"build.cells", "count"},
      {"walk.s", "s"},
      {"walk.groups", "count"},
      {"walk.mac_tests", "count"},
      {"walk.cells_opened", "count"},
      {"walk.sinks_per_group", "count"},
      {"walk.list_bodies_per_group", "count"},
      {"walk.list_cells_per_group", "count"},
      {"gather.s", "s"},
      {"gather.bytes", "B"},
      {"kernel.s", "s"},
      {"kernel.pp_interactions", "count"},
      {"kernel.pc_interactions", "count"},
      {"kernel.gflops", "Gflop/s"},
      {"kernel.peak_gflops", "Gflop/s"},
      {"kernel.efficiency", "ratio"},
      {"force.gflops", "Gflop/s"},
      {"pool.tasks", "count"},
      {"pool.steals", "count"},
      {"pool.busy_s", "s"},
      {"pool.idle_frac", "ratio"},
      {"decompose.s", "s"},
      {"decompose.bodies_moved", "count"},
      {"decompose.imbalance", "ratio"},
      {"let.s", "s"},
      {"let.skew_s", "s"},
      {"let.cells", "count"},
      {"let.bodies", "count"},
      {"let.bytes", "B"},
      {"parc.messages", "count"},
      {"let_apply.s", "s"},
      {"let_apply.interactions", "count"},
      {"integrate.s", "s"},
      {"protocol.encode_us", "us"},
      {"protocol.decode_us", "us"},
      {"protocol.bytes_per_query", "B"},
      {"exec.point_us", "us"},
      {"exec.region_us", "us"},
      {"exec.knn_us", "us"},
      {"exec.snapshot_us", "us"},
      {"exec.point_interactions", "count"},
      {"queue.wait_us_p50", "us"},
      {"queue.wait_us_p99", "us"},
      {"queue.refused", "count"},
      {"query_fail_frac", "ratio"},
      {"query_us_p99", "us"},
      {"query_us_p999", "us"},
      {"gen_late_us_p99", "us"},
      {"trace.coverage", "ratio"},
      {"trace.step_overhead_s", "s"},
      {"trace.query_overhead_us", "us"},
  };
  return m;
}

void LayerValues::set(const std::string& name, double v) {
  for (auto& [k, x] : v_)
    if (k == name) {
      x = v;
      return;
    }
  v_.emplace_back(name, v);
}

void LayerValues::emit(Report& r) const {
  for (const auto& [name, unit] : per_layer_metrics()) {
    double v = 0.0;
    for (const auto& [k, x] : v_)
      if (k == name) v = x;
    r.metric(name, v, unit);
  }
  for (const auto& [k, x] : v_) {
    bool known = false;
    for (const auto& [name, unit] : per_layer_metrics()) known = known || k == name;
    r.check(known, "unlisted per-layer metric " + k);
  }
}

}  // namespace perfbench
