#include "fft/fft.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace hotlib::fft {

void fft(std::span<Complex> data, Direction dir) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const double sign = (dir == Direction::Forward) ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (dir == Direction::Inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& c : data) c *= inv;
  }
}

void fft3d(std::vector<Complex>& data, int nx, int ny, int nz, Direction dir) {
  assert(data.size() == static_cast<std::size_t>(nx) * ny * nz);
  if (!is_pow2(static_cast<std::size_t>(nx)) || !is_pow2(static_cast<std::size_t>(ny)) ||
      !is_pow2(static_cast<std::size_t>(nz)))
    throw std::invalid_argument("fft3d: dims must be powers of two");

  const auto idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
  };

  // Along x: contiguous lines.
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      fft(std::span<Complex>(&data[idx(0, y, z)], static_cast<std::size_t>(nx)), dir);

  // Along y and z: gather strided lines into a scratch buffer.
  std::vector<Complex> line(static_cast<std::size_t>(std::max(ny, nz)));
  for (int z = 0; z < nz; ++z)
    for (int x = 0; x < nx; ++x) {
      for (int y = 0; y < ny; ++y) line[static_cast<std::size_t>(y)] = data[idx(x, y, z)];
      fft(std::span<Complex>(line.data(), static_cast<std::size_t>(ny)), dir);
      for (int y = 0; y < ny; ++y) data[idx(x, y, z)] = line[static_cast<std::size_t>(y)];
    }
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      for (int z = 0; z < nz; ++z) line[static_cast<std::size_t>(z)] = data[idx(x, y, z)];
      fft(std::span<Complex>(line.data(), static_cast<std::size_t>(nz)), dir);
      for (int z = 0; z < nz; ++z) data[idx(x, y, z)] = line[static_cast<std::size_t>(z)];
    }
}

}  // namespace hotlib::fft
