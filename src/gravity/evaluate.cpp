#include "gravity/evaluate.hpp"

#include <cassert>
#include <vector>

#include "telemetry/trace.hpp"

namespace hotlib::gravity {

void gather_interaction_batch(const hot::Tree& tree, const hot::InteractionLists& lists,
                              std::span<const Vec3d> pos, std::span<const double> mass,
                              bool quadrupole, InteractionBatch& batch) {
  batch.clear();
  batch.use_quad = quadrupole;
  batch.reserve_bodies(lists.bodies.size());
  for (std::uint32_t j : lists.bodies) batch.add_body(pos[j], mass[j]);
  const auto& cells = tree.cells();
  for (std::uint32_t ci : lists.cells)
    batch.add_cell(cells[ci].com, cells[ci].mass, cells[ci].quad);
}

void gather_records(std::span<const hot::SourceRecord> bodies,
                    std::span<const hot::CellRecord> cells, bool quadrupole,
                    InteractionBatch& batch) {
  batch.clear();
  batch.use_quad = quadrupole;
  batch.reserve_bodies(bodies.size());
  for (const hot::SourceRecord& s : bodies) batch.add_body(s.pos, s.mass);
  for (const hot::CellRecord& c : cells) batch.add_cell(c.com, c.mass, c.quad);
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

InteractionTally evaluate_with_phantoms(std::span<const Vec3d> src_pos,
                                        std::span<const double> src_mass,
                                        const morton::Domain& domain,
                                        hot::Tree::Config tree_cfg,
                                        const TreeForceConfig& cfg,
                                        std::span<const Vec3d> points,
                                        std::span<Vec3d> acc, std::span<double> pot) {
  assert(src_pos.size() == src_mass.size());
  assert(points.size() == acc.size() && points.size() == pot.size());
  const std::size_t n = src_pos.size(), m = points.size();
  std::vector<Vec3d> all_pos(src_pos.begin(), src_pos.end());
  all_pos.insert(all_pos.end(), points.begin(), points.end());
  std::vector<double> all_mass(src_mass.begin(), src_mass.end());
  all_mass.resize(n + m, 0.0);  // phantoms are massless

  hot::Tree tree;
  tree.build(all_pos, all_mass, domain, tree_cfg);
  std::vector<Vec3d> all_acc(n + m);
  std::vector<double> all_pot(n + m, 0.0);
  const InteractionTally tally =
      tree_forces(tree, all_pos, all_mass, cfg, all_acc, all_pot);
  for (std::size_t i = 0; i < m; ++i) {
    acc[i] = all_acc[n + i];
    pot[i] = all_pot[n + i];
  }
  return tally;
}

}  // namespace hotlib::gravity
