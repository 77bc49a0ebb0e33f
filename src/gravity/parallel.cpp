#include "gravity/parallel.hpp"

namespace hotlib::gravity {

ParallelForceResult parallel_tree_forces(parc::Rank& rank, hot::Bodies& local,
                                         const morton::Domain& domain,
                                         const TreeForceConfig& cfg,
                                         hot::Tree* tree_out, bool redecompose) {
  ParallelForceResult result;

  if (redecompose) {
    hot::decompose(rank, local, domain, &result.decomp);
  }

  hot::Tree scratch;
  hot::Tree& tree = tree_out != nullptr ? *tree_out : scratch;
  tree.build(local.pos, local.mass, domain);

  const std::vector<hot::Aabb> boxes = rank.allgather(hot::local_aabb(local));
  hot::LetImport import =
      hot::exchange_let(rank, tree, local.pos, local.mass, boxes, cfg.mac);
  result.let_cells = import.cells.size();
  result.let_bodies = import.bodies.size();
  result.let_bytes_sent = import.bytes_sent;

  local.clear_forces();
  result.tally += tree_forces(tree, local.pos, local.mass, cfg, local.acc, local.pot,
                              local.work);
  result.let_tally = apply_let_import(import, local.pos, cfg, local.acc, local.pot,
                                      local.work);
  result.tally += result.let_tally;
  return result;
}

}  // namespace hotlib::gravity
