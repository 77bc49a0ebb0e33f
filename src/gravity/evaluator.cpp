#include "gravity/evaluator.hpp"

#include <cassert>

#include "gravity/batch.hpp"
#include "gravity/evaluate.hpp"
#include "telemetry/trace.hpp"

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
  assert(import.sinks != nullptr && import.sinks->body_count() == pos.size());
  telemetry::Span span("apply_let_import", telemetry::Phase::kForceEval, pos.size());
  const hot::Tree& sinks = *import.sinks;
  const double eps2 = cfg.softening * cfg.softening;

  // The imported bodies get a tree of their own, in their bounding cube.
  std::vector<Vec3d> src_pos(import.bodies.size());
  std::vector<double> src_mass(import.bodies.size());
  for (std::size_t k = 0; k < import.bodies.size(); ++k) {
    src_pos[k] = import.bodies[k].pos;
    src_mass[k] = import.bodies[k].mass;
  }
  hot::Tree sources;
  sources.build(src_pos, src_mass, morton::bounding_domain(src_pos.data(), src_pos.size()));
  sinks.publish_gauges();  // the rank's health gauges describe the tree it holds
  InteractionBatch shared;
  gather_records({}, import.cells, cfg.mac.quadrupole, shared);

  // Per sink group, as in tree_forces: one walk of the import tree, one
  // gather, then each member's kernels in a fixed order.
  const auto& cells = sinks.cells();
  const std::vector<std::uint32_t> leaves = hot::leaf_indices(sinks);
  const InteractionTally tally = hot::for_each_sink<InteractionBatch>(
      leaves.size(), "let_walk",
      [&](std::size_t g, hot::InteractionLists& lists, InteractionBatch& batch,
          InteractionTally& t) {
        const hot::Cell& group = cells[leaves[g]];
        const Vec3d half = Vec3d::all(group.bmax);
        hot::build_box_interaction_lists(sources, {group.com - half, group.com + half},
                                         cfg.mac, lists, t);
        gather_interaction_batch(sources, lists, src_pos, src_mass, cfg.mac.quadrupole,
                                 batch);
        const std::uint64_t nbodies = lists.bodies.size();
        const std::uint64_t ncells = lists.cells.size() + import.cells.size();
        for (std::uint32_t s = group.body_begin;
             s < group.body_begin + group.body_count; ++s) {
          const std::uint32_t i = sinks.order()[s];
          Vec3d a{};
          double p = 0;
          batch_pp(batch, pos[i], eps2, kNoSelf, a, p);
          batch_pc(batch, pos[i], eps2, a, p);
          batch_pc(shared, pos[i], eps2, a, p);
          acc[i] += cfg.G * a;
          pot[i] += cfg.G * p;
          t.body_body += nbodies;
          t.body_cell += ncells;
          if (!work.empty()) work[i] += static_cast<double>(nbodies + ncells);
        }
      });
  telemetry::count_tally(tally);
  return tally;
}

}  // namespace hotlib::gravity
