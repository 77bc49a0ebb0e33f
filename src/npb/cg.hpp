// cg.hpp — the NPB "CG" kernel (structural reproduction).
//
// Estimates the largest eigenvalue shift of a random sparse symmetric
// positive-definite matrix by inverse power iteration, each outer iteration
// solving A z = x with a fixed number of conjugate-gradient steps. The
// matrix is row-block distributed; the matvec gathers the full vector
// (allgather) and dot products are allreduced — the irregular-communication
// signature of the original. Verification is self-consistent: the zeta
// estimate must converge (relative change below tolerance) and the final CG
// residual must be small.
#pragma once

#include "parc/rank.hpp"

namespace hotlib::npb {

struct CgResult {
  double zeta = 0.0;
  double final_residual = 0.0;
  bool verified = false;
  double ops = 0.0;
  double comm_bytes = 0.0;
};

// n rows (divisible by ranks), ~nnz_per_row off-diagonals per row,
// `outer` power iterations of `inner` CG steps each.
CgResult run_cg(parc::Rank& rank, int n, int nnz_per_row = 8, int outer = 8,
                int inner = 15);

}  // namespace hotlib::npb
