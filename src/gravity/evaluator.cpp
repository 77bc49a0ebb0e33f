#include "gravity/evaluator.hpp"

#include <cassert>

#include "gravity/batch.hpp"
#include "gravity/evaluate.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"

namespace hotlib::gravity {

InteractionTally tree_forces(const hot::Tree& tree, std::span<const Vec3d> pos,
                             std::span<const double> mass, const TreeForceConfig& cfg,
                             std::span<Vec3d> acc, std::span<double> pot,
                             std::span<double> work) {
  assert(pos.size() == acc.size() && pos.size() == pot.size());
  telemetry::Span span("tree_forces", telemetry::Phase::kForceEval, pos.size());
  const double eps2 = cfg.softening * cfg.softening;
  const auto& cells = tree.cells();
  const std::vector<std::uint32_t> leaves = hot::leaf_indices(tree);

  // One sink group start to finish: the walk, the gather and the per-body
  // kernel order are all fixed by the group, and every output this writes
  // (acc/pot/work of the group's members) is disjoint from every other
  // group's — the unit of work the determinism contract is built on.
  const InteractionTally tally = hot::for_each_sink<InteractionBatch>(
      leaves.size(), "force_walk",
      [&](std::size_t g, hot::InteractionLists& lists, InteractionBatch& batch,
          InteractionTally& t) {
        const std::uint32_t li = leaves[g];
        hot::build_interaction_lists(tree, li, cfg.mac, lists, t);
        gather_interaction_batch(tree, lists, pos, mass, cfg.mac.quadrupole, batch);
        const hot::Cell& group = cells[li];
        for (std::uint32_t s = group.body_begin;
             s < group.body_begin + group.body_count; ++s) {
          const std::uint32_t i = tree.order()[s];
          Vec3d a{};
          double p = 0;
          // The group's own members occupy contiguous slots in tree order.
          const std::size_t self = lists.self_begin + (s - group.body_begin);
          batch_pp(batch, pos[i], eps2, self, a, p);
          batch_pc(batch, pos[i], eps2, a, p);

          acc[i] += cfg.G * a;
          pot[i] += cfg.G * p;
          const std::uint64_t count =
              lists.bodies.size() - 1 + lists.cells.size();  // self term skipped
          t.body_body += lists.bodies.size() - 1;
          t.body_cell += lists.cells.size();
          if (!work.empty()) work[i] = static_cast<double>(count);
        }
      });
  telemetry::count_tally(tally);
  return tally;
}

InteractionTally apply_let_import(const hot::LetImport& import,
                                  std::span<const Vec3d> pos, const TreeForceConfig& cfg,
                                  std::span<Vec3d> acc, std::span<double> pot,
                                  std::span<double> work) {
  telemetry::Span span("apply_let_import", telemetry::Phase::kForceEval, pos.size());
  InteractionTally tally;
  const double eps2 = cfg.softening * cfg.softening;
  InteractionBatch batch;
  gather_records(import.bodies, import.cells, cfg.mac.quadrupole, batch);
  // Sinks are independent over a shared read-only batch; each chunk writes
  // a disjoint slice of acc/pot/work.
  util::TaskPool& pool = util::TaskPool::global();
  const std::size_t grain = std::max<std::size_t>(
      256, pos.size() / (static_cast<std::size_t>(pool.concurrency()) * 8));
  pool.parallel_for(pos.size(), grain, [&](std::size_t lo, std::size_t hi) {
    telemetry::ensure_worker(util::TaskPool::current_worker());
    for (std::size_t i = lo; i < hi; ++i) {
      Vec3d a{};
      double p = 0;
      batch_pp(batch, pos[i], eps2, kNoSelf, a, p);
      batch_pc(batch, pos[i], eps2, a, p);
      acc[i] += cfg.G * a;
      pot[i] += cfg.G * p;
      if (!work.empty())
        work[i] += static_cast<double>(import.bodies.size() + import.cells.size());
    }
  });
  tally.body_body += static_cast<std::uint64_t>(pos.size()) * import.bodies.size();
  tally.body_cell += static_cast<std::uint64_t>(pos.size()) * import.cells.size();
  telemetry::count_tally(tally);
  return tally;
}

}  // namespace hotlib::gravity
