// tree_step — shared-memory leapfrog steps of a clustered system: a 20k-body
// Plummer sphere, theta = 0.35, bucket 16, four pool lanes. Each step is
// kick + drift + Tree::build + tree_forces; between steps the in-process
// query mix runs against the step's tree (outside the step timer).
#include "bench.hpp"
#include "gravity/integrator.hpp"
#include "gravity/models.hpp"
#include "util/task_pool.hpp"

namespace perfbench {

using namespace hotlib;

namespace {

constexpr std::size_t kBodies = 20000;
constexpr int kBucket = 16;
constexpr double kTheta = 0.35;
constexpr double kSoftening = 0.02;
// Small enough that the distribution, and so the work per step, stays put
// however many steps a run gets through.
constexpr double kDt = 1e-4;
constexpr int kSetups = 5;
constexpr std::size_t kQueriesPerStep = 128;
constexpr std::size_t kErrSample = 1024;
constexpr double kErrCeiling = 2e-3;
constexpr std::size_t kPeakSinks = 16384;

struct State {
  hot::Bodies b;
  morton::Domain domain;
  hot::Tree tree;
};

const gravity::TreeForceConfig kCfg{.mac = hot::Mac{.theta = kTheta}, .softening = kSoftening};

void build_tree(State& s) {
  s.domain = gravity::fit_domain(s.b);
  s.tree.build(s.b.pos, s.b.mass, s.domain, {.bucket_size = kBucket});
}

// Seeded initial conditions plus the step-0 force evaluation (the warm-up).
void set_up(State& s, std::uint64_t seed) {
  s.b = gravity::plummer_sphere(kBodies, seed);
  build_tree(s);
  s.b.clear_forces();
  gravity::tree_forces(s.tree, s.b.pos, s.b.mass, kCfg, s.b.acc, s.b.pot);
}

double step(State& s) {
  const double t0 = now_s();
  gravity::kick(s.b, kDt);
  gravity::drift(s.b, kDt);
  build_tree(s);
  s.b.clear_forces();
  gravity::tree_forces(s.tree, s.b.pos, s.b.mass, kCfg, s.b.acc, s.b.pot);
  return now_s() - t0;
}

}  // namespace

int run_tree_step(const Args& a) {
  Report rep;
  stamp_host(rep, a);
  util::TaskPool& pool = util::TaskPool::global();
  const auto lanes = static_cast<double>(pool.concurrency());

  EndToEnd e;
  State s;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    set_up(s, a.seed);
    e.setup_s.push_back(now_s() - t0);
  }
  DirectQueries dq(a.seed ^ 0x9e3779b97f4a7c15ull);
  const QueryShape shape{{0, 0, 0}, 1.0};
  std::uint64_t bad_queries = 0;

  // Untraced steps: the end-to-end numbers (the first half of a traced run).
  const double deadline = now_s() + (a.trace ? 0.5 : 1.0) * a.seconds;
  while (now_s() < deadline) {
    e.step_s.push_back(step(s));
    const double q0 = now_s();
    bad_queries += dq.run(s.tree, s.b.pos, s.b.mass, kCfg, shape, kQueriesPerStep, e.query_us);
    e.query_window_s += now_s() - q0;
  }
  e.queries = static_cast<double>(e.query_us.size());
  e.force_err_rms = rms_rel_force_error(s.b.pos, s.b.mass, kSoftening, kCfg.G, s.b.acc,
                                        sample_indices(kBodies, kErrSample, a.seed));
  rep.check(e.force_err_rms < kErrCeiling, "force_err_rms above its ceiling");
  rep.attempted += e.step_s.size() + e.query_us.size();

  if (!a.trace) {
    rep.check(bad_queries == 0, "query answers differ from brute force");
    emit_end_to_end(rep, e);
    rep.print();
    return 0;
  }

  // Traced steps: the force evaluation rebuilt from its public pieces, with
  // per-lane timers and pool counters; every step is checked bit for bit
  // against tree_forces on the same tree.
  double n = 0, build_s = 0, integ_s = 0, force_s = 0, ref_s = 0, cells = 0;
  double tasks = 0, steals = 0, busy = 0, covered = 0, lane_wall = 0;
  LaneTimes sum;
  std::vector<double> traced_step_s, traced_query_us;
  std::vector<Vec3d> ref_acc(kBodies);
  std::vector<double> ref_pot(kBodies);
  const double deadline2 = now_s() + 0.5 * a.seconds;
  while (now_s() < deadline2) {
    const util::TaskPool::Stats st0 = pool.stats();
    const double t0 = now_s();
    gravity::kick(s.b, kDt);
    gravity::drift(s.b, kDt);
    const double t1 = now_s();
    build_tree(s);
    const double t2 = now_s();
    const util::TaskPool::Stats st_b1 = pool.stats();
    s.b.clear_forces();
    ForceTrace ft;
    const InteractionTally tally =
        traced_tree_forces(s.tree, s.b.pos, s.b.mass, kCfg, s.b.acc, s.b.pot, {}, ft);
    const double t3 = now_s();
    const util::TaskPool::Stats st1 = pool.stats();
    const double wall = t3 - t0;
    traced_step_s.push_back(wall);

    std::fill(ref_acc.begin(), ref_acc.end(), Vec3d{});
    std::fill(ref_pot.begin(), ref_pot.end(), 0.0);
    const double r0 = now_s();
    const InteractionTally ref =
        gravity::tree_forces(s.tree, s.b.pos, s.b.mass, kCfg, ref_acc, ref_pot);
    ref_s += now_s() - r0;
    rep.check(same_bits<Vec3d>(ref_acc, s.b.acc) && same_bits<double>(ref_pot, s.b.pot) &&
                  ref.body_body == tally.body_body && ref.body_cell == tally.body_cell &&
                  ref.mac_tests == tally.mac_tests && ref.cells_opened == tally.cells_opened,
              "traced force rebuild differs from tree_forces");
    ++rep.attempted;

    const LaneTimes lt = ft.total();
    n += 1;
    integ_s += t1 - t0;
    build_s += t2 - t1;
    force_s += ft.wall_s;
    cells += static_cast<double>(s.tree.cells().size());
    sum += lt;
    tasks += static_cast<double>(st1.tasks_executed - st0.tasks_executed);
    steals += static_cast<double>(st1.steals - st0.steals);
    busy += st1.busy_seconds - st0.busy_seconds;
    // Lane-seconds accounted for. Integration and build: the calling lane's
    // wall time in them plus the worker time the pool counted while they ran.
    // Force phase: the walk / gather / kernel timers of every lane. Idle:
    // worker time the pool did not count as busy over the whole step, plus
    // the calling lane's wait in the group loop outside its own chunks.
    const double worker_idle = (lanes - 1.0) * wall - (st1.busy_seconds - st0.busy_seconds);
    const double caller_idle = ft.loop_s - ft.lanes[0].chunk_s;
    covered += (t2 - t0) + (st_b1.busy_seconds - st0.busy_seconds) + lt.walk_s +
               lt.gather_s + lt.kernel_s + worker_idle + caller_idle;
    lane_wall += lanes * wall;

    bad_queries +=
        dq.run(s.tree, s.b.pos, s.b.mass, kCfg, shape, kQueriesPerStep, traced_query_us);
  }
  rep.attempted += traced_query_us.size();
  rep.check(n > 0, "no traced steps");
  rep.check(bad_queries == 0, "query answers differ from brute force");
  rep.check(covered >= 0.9 * lane_wall, "layer times plus pool idle cover < 0.9 of lane time");
  n = std::max(n, 1.0);

  std::vector<double> peak;
  for (int k = 0; k < 5; ++k) {
    const double p0 = now_s();
    const std::uint64_t inter = kernel_probe(kPeakSinks, a.seed + k);
    peak.push_back(38.0 * static_cast<double>(inter) / (now_s() - p0) / 1e9);
  }
  const double peak_gflops = median(peak);
  const double interactions = static_cast<double>(sum.tally.interactions()) / n;
  const double kernel_s = sum.kernel_s / n / lanes;
  const double groups = static_cast<double>(sum.groups) / n;

  LayerValues lv;
  lv.set("build.s", build_s / n);
  lv.set("build.cells", cells / n);
  lv.set("walk.s", sum.walk_s / n / lanes);
  lv.set("walk.groups", groups);
  lv.set("walk.mac_tests", static_cast<double>(sum.tally.mac_tests) / n);
  lv.set("walk.cells_opened", static_cast<double>(sum.tally.cells_opened) / n);
  lv.set("walk.sinks_per_group", static_cast<double>(kBodies) / groups);
  lv.set("walk.list_bodies_per_group", static_cast<double>(sum.list_bodies) / n / groups);
  lv.set("walk.list_cells_per_group", static_cast<double>(sum.list_cells) / n / groups);
  lv.set("gather.s", sum.gather_s / n / lanes);
  lv.set("gather.bytes", sum.gather_bytes / n);
  lv.set("kernel.s", kernel_s);
  lv.set("kernel.pp_interactions", static_cast<double>(sum.tally.body_body) / n);
  lv.set("kernel.pc_interactions", static_cast<double>(sum.tally.body_cell) / n);
  lv.set("kernel.gflops", 38.0 * interactions / kernel_s / 1e9);
  lv.set("kernel.peak_gflops", peak_gflops);
  lv.set("kernel.efficiency", 38.0 * interactions / kernel_s / 1e9 / peak_gflops);
  lv.set("force.gflops", 38.0 * interactions / (ref_s / n) / 1e9);
  lv.set("pool.tasks", tasks / n);
  lv.set("pool.steals", steals / n);
  lv.set("pool.busy_s", busy / n);
  lv.set("pool.idle_frac", 1.0 - busy / ((lanes - 1.0) * mean(traced_step_s) * n));
  lv.set("integrate.s", integ_s / n);
  lv.set("query_us_p99", windowed_percentile(e.query_us, 0.99));
  lv.set("query_us_p999", windowed_percentile(e.query_us, 0.999));
  lv.set("query_fail_frac", static_cast<double>(bad_queries) /
                                static_cast<double>(e.query_us.size() + traced_query_us.size()));
  lv.set("trace.coverage", covered / lane_wall);
  lv.set("trace.step_overhead_s", percentile(traced_step_s, 0.5) - percentile(e.step_s, 0.5));
  lv.set("trace.query_overhead_us",
         percentile(traced_query_us, 0.5) - percentile(e.query_us, 0.5));
  rep.stamp("traced steps", n);
  rep.stamp("force phase share of traced step", force_s / std::max(1e-12, mean(traced_step_s) * n));
  lv.emit(rep);
  rep.print();
  return 0;
}

}  // namespace perfbench
