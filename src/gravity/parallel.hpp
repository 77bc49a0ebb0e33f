// parallel.hpp — one parallel treecode force computation, end to end:
// weighted decomposition -> local tree build -> LET exchange -> evaluation.
// This is the per-timestep pipeline of the paper's production code.
#pragma once

#include "gravity/evaluator.hpp"
#include "hot/bodies.hpp"
#include "hot/decompose.hpp"
#include "hot/let.hpp"
#include "hot/tree.hpp"
#include "parc/rank.hpp"

namespace hotlib::gravity {

struct ParallelForceResult {
  InteractionTally tally;         // this rank's interactions
  InteractionTally let_tally;     // the share of `tally` from the LET import
  hot::DecomposeStats decomp;     // balance and migration statistics
  std::size_t let_cells = 0;      // imported multipoles
  std::size_t let_bodies = 0;     // imported direct bodies
  std::size_t let_bytes_sent = 0; // outgoing LET volume
};

// Compute forces into local.acc / local.pot (overwritten). Bodies may
// migrate between ranks (the decomposition step). Work weights are refreshed
// from the interaction counts for the next call. When `tree_out` is non-null
// the local tree is left there for reuse (e.g. imaging or neighbour search).
ParallelForceResult parallel_tree_forces(parc::Rank& rank, hot::Bodies& local,
                                         const morton::Domain& domain,
                                         const TreeForceConfig& cfg,
                                         hot::Tree* tree_out = nullptr,
                                         bool redecompose = true);

}  // namespace hotlib::gravity
