// mg.hpp — the NPB "MultiGrid" kernel (structural reproduction).
//
// V-cycle multigrid for the 3-D periodic Poisson problem A u = v, where v is
// a sparse field of +1/-1 impulses at LCG-chosen points (the NPB setup).
// The grid is z-slab distributed; every smoothing sweep exchanges one ghost
// plane with each neighbour — the nearest-neighbour communication pattern of
// the original benchmark. Reduction: damped Jacobi (2 pre + 2 post sweeps),
// full-weighting restriction, piecewise-constant prolongation. Verification:
// the residual norm after the configured number of V-cycles must drop below
// a documented fraction of the initial norm (the original verifies a
// reference residual; ours is self-consistent).
#pragma once

#include "parc/rank.hpp"

namespace hotlib::npb {

struct MgResult {
  double initial_residual = 0.0;
  double final_residual = 0.0;
  int cycles = 0;
  bool verified = false;
  double ops = 0.0;
  double comm_bytes = 0.0;
};

// n = 2^n_log2 grid points per side; n must be divisible by rank.size() on
// the finest level. Runs `cycles` V-cycles.
MgResult run_mg(parc::Rank& rank, int n_log2, int cycles = 8);

}  // namespace hotlib::npb
