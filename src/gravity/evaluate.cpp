#include "gravity/evaluate.hpp"

#include <cassert>

#include "telemetry/trace.hpp"

namespace hotlib::gravity {

void gather_interaction_batch(const hot::Tree& tree, const hot::InteractionLists& lists,
                              std::span<const Vec3d> pos, std::span<const double> mass,
                              bool quadrupole, InteractionBatch& batch) {
  batch.resize(lists.bodies.size(), lists.cells.size(), quadrupole);
  for (std::size_t k = 0; k < lists.bodies.size(); ++k) {
    const std::uint32_t j = lists.bodies[k];
    batch.set_body(k, pos[j], mass[j]);
  }
  const auto& cells = tree.cells();
  for (std::size_t k = 0; k < lists.cells.size(); ++k) {
    const hot::Cell& c = cells[lists.cells[k]];
    batch.set_cell(k, c.com, c.mass, c.quad);
  }
}

void gather_records(std::span<const hot::SourceRecord> bodies,
                    std::span<const hot::CellRecord> cells, bool quadrupole,
                    InteractionBatch& batch) {
  batch.resize(bodies.size(), cells.size(), quadrupole);
  for (std::size_t k = 0; k < bodies.size(); ++k)
    batch.set_body(k, bodies[k].pos, bodies[k].mass);
  for (std::size_t k = 0; k < cells.size(); ++k)
    batch.set_cell(k, cells[k].com, cells[k].mass, cells[k].quad);
}

InteractionTally evaluate_at(const hot::Tree& tree, std::span<const Vec3d> src_pos,
                             std::span<const double> src_mass,
                             const TreeForceConfig& cfg, std::span<const Vec3d> points,
                             std::span<Vec3d> acc, std::span<double> pot) {
  assert(points.size() == acc.size() && points.size() == pot.size());
  telemetry::Span span("evaluate_at", telemetry::Phase::kForceEval, points.size());
  const double eps2 = cfg.softening * cfg.softening;

  // One query point start to finish: its walk, gather and kernel order are
  // all functions of (tree, point) alone, and it writes only its own output
  // slot — the same determinism contract as a tree_forces sink group.
  const InteractionTally tally = hot::for_each_sink<InteractionBatch>(
      points.size(), "query_walk",
      [&](std::size_t qi, hot::InteractionLists& lists, InteractionBatch& batch,
          InteractionTally& t) {
        hot::build_point_interaction_lists(tree, points[qi], cfg.mac, lists, t);
        gather_interaction_batch(tree, lists, src_pos, src_mass, cfg.mac.quadrupole,
                                 batch);
        Vec3d a{};
        double p = 0;
        batch_pp(batch, points[qi], eps2, kNoSelf, a, p);
        batch_pc(batch, points[qi], eps2, a, p);
        acc[qi] = cfg.G * a;
        pot[qi] = cfg.G * p;
        t.body_body += lists.bodies.size();
        t.body_cell += lists.cells.size();
      });
  telemetry::count_tally(tally);
  return tally;
}

}  // namespace hotlib::gravity
