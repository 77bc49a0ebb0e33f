#include "gravity/abm_forces.hpp"

#include <algorithm>

#include "gravity/batch.hpp"
#include "gravity/evaluate.hpp"
#include "hot/tree.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::gravity {

AbmForceResult abm_tree_forces(parc::Rank& rank, hot::Bodies& local,
                               const morton::Domain& domain,
                               const TreeForceConfig& cfg) {
  AbmForceResult result;
  const std::vector<hot::KeyRange> ranges =
      hot::decompose(rank, local, domain, &result.decomp);

  hot::Tree tree;
  tree.build(local.pos, local.mass, domain);
  hot::DistributedTree dtree(rank, tree, local.pos, local.mass, ranges, domain);

  local.clear_forces();
  const double eps2 = cfg.softening * cfg.softening;
  const auto& cells = tree.cells();

  // Gather buffers reused across sink groups. Local and remote sources stay
  // in separate batches to preserve the evaluation order of the per-pair
  // code (local bodies, local cells, remote bodies, remote cells), which
  // keeps results bit-identical on the scalar path.
  InteractionBatch batch_local;
  InteractionBatch batch_remote;

  result.traversal = dtree.traverse(
      cfg.mac,
      [&](std::uint32_t leaf_index, const hot::InteractionLists& lists,
          const hot::DistributedTree::RemoteLists& remote) {
        gather_interaction_batch(tree, lists, local.pos, local.mass, cfg.mac.quadrupole,
                                 batch_local);
        gather_records(remote.bodies, remote.cells, cfg.mac.quadrupole, batch_remote);

        const hot::Cell& group = cells[leaf_index];
        for (std::uint32_t t = group.body_begin;
             t < group.body_begin + group.body_count; ++t) {
          const std::uint32_t i = tree.order()[t];
          Vec3d a{};
          double p = 0;
          // The distributed walk usually pushes the group's own bodies
          // contiguously at self_begin, but the below-local-leaf interval
          // path can deliver them elsewhere — validate and fall back to a
          // scan when the O(1) slot guess misses.
          std::size_t self = lists.self_begin + (t - group.body_begin);
          if (self >= lists.bodies.size() || lists.bodies[self] != i) {
            const auto it = std::find(lists.bodies.begin(), lists.bodies.end(), i);
            self = it == lists.bodies.end()
                       ? kNoSelf
                       : static_cast<std::size_t>(it - lists.bodies.begin());
          }
          batch_pp(batch_local, local.pos[i], eps2, self, a, p);
          batch_pc(batch_local, local.pos[i], eps2, a, p);
          batch_pp(batch_remote, local.pos[i], eps2, kNoSelf, a, p);
          batch_pc(batch_remote, local.pos[i], eps2, a, p);
          local.acc[i] += cfg.G * a;
          local.pot[i] += cfg.G * p;
          const std::uint64_t pp = lists.bodies.size() - 1 + remote.bodies.size();
          const std::uint64_t pc = lists.cells.size() + remote.cells.size();
          result.tally.body_body += pp;
          result.tally.body_cell += pc;
          local.work[i] = static_cast<double>(pp + pc);
        }
      });
  result.health = rank.am_health();
  // The force kernel runs inside the traversal callback, so its tally is
  // flushed here once rather than by a dedicated kForceEval span.
  telemetry::count_tally(result.tally);
  return result;
}

}  // namespace hotlib::gravity
