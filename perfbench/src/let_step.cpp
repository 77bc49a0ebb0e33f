// let_step — distributed-memory steps of an unclustered system: a 20k-body
// uniform cube on 4 parc ranks with one pool lane each, theta = 0.35. Each
// step is kick + drift + parallel_tree_forces (weighted redecomposition,
// local build, LET exchange, local walk, LET apply). Between steps rank 0
// runs the in-process query mix against its local tree (outside the timer).
#include <algorithm>

#include "bench.hpp"
#include "gravity/integrator.hpp"
#include "gravity/models.hpp"
#include "gravity/parallel.hpp"
#include "hot/decompose.hpp"
#include "hot/let.hpp"
#include "parc/runtime.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using namespace hotlib;

namespace {

constexpr int kRanks = 4;
constexpr std::size_t kBodies = 20000;
constexpr double kTheta = 0.35;
constexpr double kSoftening = 0.02;
constexpr double kDt = 1e-4;  // cold cube: bodies barely move during a run
constexpr int kSetups = 5;
constexpr std::size_t kQueriesPerStep = 128;
constexpr std::size_t kErrSample = 1024;
constexpr double kErrCeiling = 2e-3;
constexpr std::size_t kPeakSinksPerRank = 4096;

const gravity::TreeForceConfig kCfg{.mac = hot::Mac{.theta = kTheta}, .softening = kSoftening};

// Rank r's initial share: every r-th contiguous block of the seeded cube.
hot::Bodies initial_bodies(std::uint64_t seed, int rank, morton::Domain& domain) {
  const hot::Bodies all = gravity::uniform_cube(kBodies, seed);
  domain = gravity::fit_domain(all);
  hot::Bodies local;
  const std::size_t lo = kBodies * static_cast<std::size_t>(rank) / kRanks;
  const std::size_t hi = kBodies * static_cast<std::size_t>(rank + 1) / kRanks;
  for (std::size_t i = lo; i < hi; ++i) local.append_from(all, i);
  return local;
}

QueryShape local_shape(const hot::Bodies& b) {
  const hot::Aabb box = hot::local_aabb(b);
  const Vec3d ext = box.hi - box.lo;
  return {0.5 * (box.lo + box.hi), 0.5 * std::max({ext.x, ext.y, ext.z})};
}

// Per-rank sums over the traced steps.
struct RankSums {
  double decompose = 0, build = 0, let = 0, apply = 0, integ = 0, idle = 0, lane = 0;
  LaneTimes force;
  double moved = 0, let_cells = 0, let_bodies = 0, let_bytes = 0, messages = 0;
  double apply_interactions = 0, cells = 0, ref_interactions = 0;
  std::uint64_t mismatches = 0;
  double probe_s = 0;
  std::uint64_t probe_interactions = 0;
};

}  // namespace

int run_let_step(const Args& a) {
  Report rep;
  stamp_host(rep, a);
  EndToEnd e;
  std::uint64_t bad_queries = 0;
  std::vector<double> traced_step_s, traced_query_us, ref_s, skew_s, imbalance;
  std::vector<RankSums> sums(kRanks);
  std::vector<double> enter_let(kRanks);  // per traced step, rank r's LET start
  double traced_steps = 0;

  parc::Runtime::run(kRanks, [&](parc::Rank& rank) {
    const int r = rank.rank();
    const bool root = r == 0;
    morton::Domain domain;
    hot::Bodies local;
    hot::Tree tree;
    for (int k = 0; k < kSetups; ++k) {
      rank.barrier();
      const double t0 = now_s();
      local = initial_bodies(a.seed, r, domain);
      gravity::parallel_tree_forces(rank, local, domain, kCfg, &tree);  // warm-up step
      rank.barrier();
      if (root) e.setup_s.push_back(now_s() - t0);
    }
    DirectQueries dq(a.seed ^ 0x9e3779b97f4a7c15ull);
    const QueryShape shape = local_shape(local);

    // Untraced steps: the end-to-end numbers (first half of a traced run).
    const double deadline = now_s() + (a.trace ? 0.5 : 1.0) * a.seconds;
    while (rank.broadcast<int>(root && now_s() < deadline, 0)) {
      rank.barrier();
      const double t0 = now_s();
      gravity::kick(local, kDt);
      gravity::drift(local, kDt);
      gravity::parallel_tree_forces(rank, local, domain, kCfg, &tree);
      rank.barrier();
      if (!root) continue;
      e.step_s.push_back(now_s() - t0);
      const double q0 = now_s();
      bad_queries += dq.run(tree, local.pos, local.mass, kCfg, shape, kQueriesPerStep, e.query_us);
      e.query_window_s += now_s() - q0;
    }

    // Force accuracy of the distributed evaluation: rank 0 gathers every
    // body and compares a sample against the direct sum.
    const auto all_pos = rank.allgather_vector<Vec3d>(local.pos);
    const auto all_mass = rank.allgather_vector<double>(local.mass);
    const auto all_acc = rank.allgather_vector<Vec3d>(local.acc);
    if (root) {
      std::vector<Vec3d> pos, acc;
      std::vector<double> mass;
      for (int s = 0; s < kRanks; ++s) {
        pos.insert(pos.end(), all_pos[s].begin(), all_pos[s].end());
        mass.insert(mass.end(), all_mass[s].begin(), all_mass[s].end());
        acc.insert(acc.end(), all_acc[s].begin(), all_acc[s].end());
      }
      e.force_err_rms = rms_rel_force_error(pos, mass, kSoftening, kCfg.G, acc,
                                            sample_indices(pos.size(), kErrSample, a.seed));
    }
    if (!a.trace) return;

    // Traced steps: parallel_tree_forces rebuilt from its public pieces with
    // per-rank layer timers; each step is checked bit for bit against
    // parallel_tree_forces run from the same state. Telemetry is switched on
    // only to read each rank's own sent-message counter.
    rank.barrier();
    if (root) telemetry::set_enabled(true);
    rank.barrier();
    telemetry::RankScope scope(r);
    RankSums& my = sums[static_cast<std::size_t>(r)];
    const double deadline2 = now_s() + 0.5 * a.seconds;
    while (rank.broadcast<int>(root && now_s() < deadline2, 0)) {
      hot::Bodies ref = local;
      gravity::kick(ref, kDt);
      gravity::drift(ref, kDt);

      rank.barrier();
      const double t0 = now_s();
      gravity::kick(local, kDt);
      gravity::drift(local, kDt);
      const double t1 = now_s();
      const std::uint64_t msg0 = telemetry::channel()->counters()[telemetry::Counter::kMessagesSent];
      hot::DecomposeStats ds;
      hot::decompose(rank, local, domain, &ds);
      const double t2 = now_s();
      tree.build(local.pos, local.mass, domain);
      const double t3 = now_s();
      enter_let[static_cast<std::size_t>(r)] = t3;
      const std::vector<hot::Aabb> boxes = rank.allgather(hot::local_aabb(local));
      const hot::LetImport import =
          hot::exchange_let(rank, tree, local.pos, local.mass, boxes, kCfg.mac);
      const double t4 = now_s();
      local.clear_forces();
      ForceTrace ft;
      InteractionTally tally = traced_tree_forces(tree, local.pos, local.mass, kCfg, local.acc,
                                                  local.pot, local.work, ft);
      const double t5 = now_s();
      const InteractionTally applied =
          gravity::apply_let_import(import, local.pos, kCfg, local.acc, local.pot, local.work);
      const double t6 = now_s();
      const std::uint64_t msg1 = telemetry::channel()->counters()[telemetry::Counter::kMessagesSent];
      const double tb = now_s();
      rank.barrier();
      const double t7 = now_s();

      my.integ += t1 - t0;
      my.decompose += t2 - t1;
      my.build += t3 - t2;
      my.let += t4 - t3;
      my.apply += t6 - t5;
      my.idle += t7 - tb;
      my.lane += t7 - t0;
      my.force += ft.total();
      my.moved += static_cast<double>(ds.sent);
      my.let_cells += static_cast<double>(import.cells.size());
      my.let_bodies += static_cast<double>(import.bodies.size());
      my.let_bytes += static_cast<double>(import.bytes_sent);
      my.messages += static_cast<double>(msg1 - msg0);
      my.apply_interactions += static_cast<double>(applied.interactions());
      my.cells += static_cast<double>(tree.cells().size());
      if (root) {
        traced_step_s.push_back(t7 - t0);
        imbalance.push_back(ds.imbalance());
        const auto [lo, hi] = std::minmax_element(enter_let.begin(), enter_let.end());
        skew_s.push_back(*hi - *lo);
        traced_steps += 1;
      }

      rank.barrier();
      const double r0 = now_s();
      const gravity::ParallelForceResult res =
          gravity::parallel_tree_forces(rank, ref, domain, kCfg);
      rank.barrier();
      if (root) ref_s.push_back(now_s() - r0);
      tally += applied;
      my.ref_interactions += static_cast<double>(res.tally.interactions());
      my.mismatches += !(same_bits<Vec3d>(ref.pos, local.pos) && same_bits<Vec3d>(ref.acc, local.acc) &&
                         same_bits<double>(ref.pot, local.pot) &&
                         same_bits<double>(ref.work, local.work) &&
                         res.tally.body_body == tally.body_body &&
                         res.tally.body_cell == tally.body_cell);

      if (root) bad_queries += dq.run(tree, local.pos, local.mass, kCfg, shape,
                                      kQueriesPerStep, traced_query_us);
    }

    // Kernel peak at this workload's concurrency: every rank's single lane
    // evaluates the fixed list at once.
    for (int k = 0; k < 5; ++k) {
      rank.barrier();
      const double p0 = now_s();
      my.probe_interactions += kernel_probe(kPeakSinksPerRank, a.seed + k);
      my.probe_s += now_s() - p0;
      rank.barrier();
    }
  });

  e.queries = static_cast<double>(e.query_us.size());
  rep.check(e.force_err_rms < kErrCeiling, "force_err_rms above its ceiling");
  rep.check(bad_queries == 0, "query answers differ from brute force");
  rep.attempted += e.step_s.size() + e.query_us.size();
  if (!a.trace) {
    emit_end_to_end(rep, e);
    rep.print();
    return 0;
  }

  RankSums t;
  double peak_rate = 0, covered = 0;  // peak: per-rank rates summed
  std::uint64_t mismatches = 0;
  for (const RankSums& s : sums) {
    t.decompose += s.decompose;
    t.build += s.build;
    t.let += s.let;
    t.apply += s.apply;
    t.integ += s.integ;
    t.force += s.force;
    t.moved += s.moved;
    t.let_cells += s.let_cells;
    t.let_bodies += s.let_bodies;
    t.let_bytes += s.let_bytes;
    t.messages += s.messages;
    t.apply_interactions += s.apply_interactions;
    t.ref_interactions += s.ref_interactions;
    t.cells += s.cells;
    mismatches += s.mismatches;
    peak_rate += static_cast<double>(s.probe_interactions) / s.probe_s;
    // Rank lane-seconds accounted for: its layers plus the time it waited
    // in the end-of-step barrier for the slowest rank. The pool is one
    // inline lane, so there is no pool idle time.
    covered += s.decompose + s.build + s.let + s.force.walk_s + s.force.gather_s +
               s.force.kernel_s + s.apply + s.integ + s.idle;
    t.lane += s.lane;
  }
  rep.check(traced_steps > 0, "no traced steps");
  rep.check(covered >= 0.9 * t.lane, "layer times plus barrier wait cover < 0.9 of lane time");
  rep.check(mismatches == 0, "traced LET rebuild differs from parallel_tree_forces");
  rep.attempted += static_cast<std::uint64_t>(traced_steps) + traced_query_us.size();
  const double n = std::max(traced_steps, 1.0);
  const double lanes = kRanks;
  const double peak_gflops = 38.0 * peak_rate / 1e9;
  const double kernel_s = t.force.kernel_s / n / lanes;
  const double interactions = static_cast<double>(t.force.tally.interactions()) / n;
  const double groups = static_cast<double>(t.force.groups) / n;

  LayerValues lv;
  lv.set("build.s", t.build / n / lanes);
  lv.set("build.cells", t.cells / n);
  lv.set("walk.s", t.force.walk_s / n / lanes);
  lv.set("walk.groups", groups);
  lv.set("walk.mac_tests", static_cast<double>(t.force.tally.mac_tests) / n);
  lv.set("walk.cells_opened", static_cast<double>(t.force.tally.cells_opened) / n);
  lv.set("walk.sinks_per_group", static_cast<double>(kBodies) / groups);
  lv.set("walk.list_bodies_per_group", static_cast<double>(t.force.list_bodies) / n / groups);
  lv.set("walk.list_cells_per_group", static_cast<double>(t.force.list_cells) / n / groups);
  lv.set("gather.s", t.force.gather_s / n / lanes);
  lv.set("gather.bytes", t.force.gather_bytes / n);
  lv.set("kernel.s", kernel_s);
  lv.set("kernel.pp_interactions", static_cast<double>(t.force.tally.body_body) / n);
  lv.set("kernel.pc_interactions", static_cast<double>(t.force.tally.body_cell) / n);
  lv.set("kernel.gflops", 38.0 * interactions / kernel_s / 1e9);
  lv.set("kernel.peak_gflops", peak_gflops);
  lv.set("kernel.efficiency", 38.0 * interactions / kernel_s / 1e9 / peak_gflops);
  lv.set("force.gflops", 38.0 * t.ref_interactions / n / median(ref_s) / 1e9);
  lv.set("decompose.s", t.decompose / n / lanes);
  lv.set("decompose.bodies_moved", t.moved / n);
  lv.set("decompose.imbalance", mean(imbalance));
  lv.set("let.s", t.let / n / lanes);
  lv.set("let.skew_s", mean(skew_s));
  lv.set("let.cells", t.let_cells / n);
  lv.set("let.bodies", t.let_bodies / n);
  lv.set("let.bytes", t.let_bytes / n);
  lv.set("parc.messages", t.messages / n);
  lv.set("let_apply.s", t.apply / n / lanes);
  lv.set("let_apply.interactions", t.apply_interactions / n);
  lv.set("integrate.s", t.integ / n / lanes);
  lv.set("query_us_p99", windowed_percentile(e.query_us, 0.99));
  lv.set("query_us_p999", windowed_percentile(e.query_us, 0.999));
  lv.set("query_fail_frac", static_cast<double>(bad_queries) /
                                static_cast<double>(e.query_us.size() + traced_query_us.size()));
  lv.set("trace.coverage", covered / t.lane);
  lv.set("trace.step_overhead_s", percentile(traced_step_s, 0.5) - percentile(e.step_s, 0.5));
  lv.set("trace.query_overhead_us",
         percentile(traced_query_us, 0.5) - percentile(e.query_us, 0.5));
  rep.stamp("traced steps", n);
  lv.emit(rep);
  rep.print();
  return 0;
}

}  // namespace perfbench
