// ft.hpp — the NPB "FT" kernel: 3-D FFT-based spectral evolution.
//
// The forward transform of an LCG-initialized complex field is evolved by
// multiplying with exp(-4 alpha pi^2 |kbar|^2 t) for t = 1..T (the exact
// solution of a diffusion equation), inverse-transforming each step and
// accumulating a 1024-point checksum. Built on the slab-parallel 3-D FFT
// (fft/slab_fft.hpp) whose global transpose is the all-to-all that dominates
// FT communication. Verification is self-consistent: checksums must be
// identical for any rank count (the test suite pins serial == parallel) and
// the field's energy must decay monotonically (diffusion).
#pragma once

#include <complex>
#include <vector>

#include "parc/rank.hpp"

namespace hotlib::npb {

struct FtResult {
  std::vector<std::complex<double>> checksums;  // one per evolution step
  bool verified = false;
  double ops = 0.0;
  double comm_bytes = 0.0;
};

// n = 2^n_log2 per side (divisible by ranks), `steps` evolution steps.
FtResult run_ft(parc::Rank& rank, int n_log2, int steps = 6);

}  // namespace hotlib::npb
