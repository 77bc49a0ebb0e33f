// adi.hpp — structural reductions of the NPB pseudo-applications BT, SP, LU.
//
// The three NPB pseudo-apps factor an implicit 3-D operator into directional
// solves over a structured grid; what distinguishes them is the *shape* of
// the per-line system and the communication it forces:
//
//   * BT ("block tridiagonal"): 3x3-block tridiagonal line solves in each of
//     the three directions (block Thomas algorithm). Our state has 3
//     components per point (the original has 5).
//   * SP ("scalar pentadiagonal"): scalar 5-band line solves from a
//     fourth-order implicit stencil.
//   * LU: no line solves at all — successive over-relaxation with red-black
//     plane coloring standing in for the original's lower/upper triangular
//     wavefront sweeps (a structural reduction: the colored ordering keeps
//     the per-iteration nearest-neighbour ghost-plane exchange of the
//     pseudo-app while staying decomposition-independent).
//
// All three advance (I - lambda Dxx)(I - lambda Dyy)(I - lambda Dzz) u = u^n
// (Dirichlet walls) — for LU via SSOR on the unfactored operator. The grid
// is z-slab distributed; BT/SP solve x and y lines locally and reach z lines
// through a global transpose (all-to-all), the "transpose" strategy of the
// parallel NPB codes.
//
// Verification is exact algebra: every direct line solve is checked by
// multiplying back (||T x - rhs|| / ||rhs|| < 1e-10 on sampled lines), SSOR
// is checked by its residual reduction, and the diffusion operator must be
// dissipative (final norm < initial norm).
#pragma once

#include "parc/rank.hpp"

namespace hotlib::npb {

enum class AdiVariant { BT, SP, LU };

inline const char* variant_name(AdiVariant v) {
  switch (v) {
    case AdiVariant::BT: return "BT";
    case AdiVariant::SP: return "SP";
    case AdiVariant::LU: return "LU";
  }
  return "?";
}

struct AdiResult {
  double initial_norm = 0.0;
  double final_norm = 0.0;
  double max_solve_residual = 0.0;  // worst sampled ||Tx - rhs|| / ||rhs||
  int steps = 0;
  bool verified = false;
  double ops = 0.0;
  double comm_bytes = 0.0;
};

// n points per side (divisible by ranks), `steps` implicit timesteps.
AdiResult run_adi(parc::Rank& rank, AdiVariant variant, int n, int steps = 4);

}  // namespace hotlib::npb
