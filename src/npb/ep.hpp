// ep.hpp — the NPB "Embarrassingly Parallel" kernel, bit-exact.
//
// Generates 2^m pairs of uniforms from the NPB linear congruential generator
// (seed 271828183, a = 5^13, modulus 2^46), converts accepted pairs to
// Gaussian deviates by the Marsaglia polar method, and accumulates the sums
// of the deviates plus counts in ten concentric square annuli. The sums are
// verified against the published NPB reference values for classes S (m=24),
// W (m=25) and A (m=28); ranks split the pair space in blocks, using the
// O(log n) LCG jump to seed each block independently.
#pragma once

#include <array>
#include <cstdint>

#include "parc/rank.hpp"

namespace hotlib::npb {

struct EpResult {
  double sx = 0.0;
  double sy = 0.0;
  std::array<std::uint64_t, 10> counts{};  // gaussians per annulus
  std::uint64_t pairs = 0;                 // accepted gaussian pairs
  bool verified = false;                   // reference check (m 24/25/28 only)
  double ops = 0.0;                        // counted flops
};

// Run EP for 2^m pairs distributed over the ranks; result is identical on
// every rank (allreduced). Charges modelled compute via rank.charge_flops.
EpResult run_ep(parc::Rank& rank, int m);

// Serial reference (equivalent to run_ep on one rank).
EpResult run_ep_serial(int m);

}  // namespace hotlib::npb
