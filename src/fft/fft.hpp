// fft.hpp — radix-2 complex FFT, serial 1-D and 3-D.
//
// The paper's initial conditions were "calculated using a 1024^3 point 3-d
// FFT from a Cold Dark Matter power spectrum" (and a 512^3 FFT computed on
// Loki itself). We build the transform from scratch: an iterative
// Cooley-Tukey radix-2 kernel, a 3-D wrapper, and (in slab_fft.hpp) a
// slab-decomposed parallel version running on parc ranks — the same
// structure as the NPB FT benchmark.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace hotlib::fft {

using Complex = std::complex<double>;

enum class Direction { Forward, Inverse };

// True when n is a power of two (the only sizes the radix-2 kernel accepts).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// In-place iterative radix-2 FFT. Forward uses e^{-i...}; Inverse applies the
// 1/n normalization so that inverse(forward(x)) == x.
void fft(std::span<Complex> data, Direction dir);

// In-place 3-D FFT of data[z][y][x] with x fastest; all dims powers of two.
void fft3d(std::vector<Complex>& data, int nx, int ny, int nz, Direction dir);

}  // namespace hotlib::fft
