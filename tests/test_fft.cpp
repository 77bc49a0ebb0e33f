// Tests for src/fft: 1-D against the O(n^2) DFT, inverse round trips,
// Parseval, 3-D impulse/plane-wave identities and the slab-parallel 3-D FFT
// against the serial one.
#include <gtest/gtest.h>

#include <numbers>

#include "fft/fft.hpp"
#include "fft/slab_fft.hpp"
#include "parc/parc.hpp"
#include "util/rng.hpp"

namespace hotlib::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = {rng.normal(), rng.normal()};
  return v;
}

// Out-of-place discrete Fourier transform by direct summation (O(n^2)): the
// reference fft() is validated against.
std::vector<Complex> dft_reference(std::span<const Complex> data, Direction dir) {
  const std::size_t n = data.size();
  const double sign = (dir == Direction::Forward) ? -1.0 : 1.0;
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang =
          sign * 2.0 * std::numbers::pi * static_cast<double>(k * j) / static_cast<double>(n);
      acc += data[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = (dir == Direction::Inverse) ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

class Fft1D : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1D, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  auto data = random_signal(n, n);
  const auto ref = dft_reference(data, Direction::Forward);
  fft(data, Direction::Forward);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_NEAR(std::abs(data[i] - ref[i]), 0.0, 1e-9 * static_cast<double>(n));
}

TEST_P(Fft1D, InverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto orig = random_signal(n, 2 * n + 1);
  auto data = orig;
  fft(data, Direction::Forward);
  fft(data, Direction::Inverse);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-10 * static_cast<double>(n));
}

TEST_P(Fft1D, ParsevalEnergyConservation) {
  const std::size_t n = GetParam();
  auto data = random_signal(n, 3 * n + 7);
  double time_energy = 0;
  for (const auto& c : data) time_energy += std::norm(c);
  fft(data, Direction::Forward);
  double freq_energy = 0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1D, ::testing::Values(1u, 2u, 4u, 16u, 64u, 256u));

TEST(Fft1D, RejectsNonPowerOfTwo) {
  std::vector<Complex> v(12);
  EXPECT_THROW(fft(v, Direction::Forward), std::invalid_argument);
}

TEST(Fft1D, PureToneLandsInSingleBin) {
  const std::size_t n = 64;
  std::vector<Complex> v(n);
  const int k0 = 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2 * std::numbers::pi * k0 * static_cast<double>(j) / n;
    v[j] = {std::cos(ang), std::sin(ang)};
  }
  fft(v, Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0)
      EXPECT_NEAR(std::abs(v[k]), static_cast<double>(n), 1e-9);
    else
      ASSERT_NEAR(std::abs(v[k]), 0.0, 1e-9);
  }
}

TEST(Fft3D, ImpulseGivesFlatSpectrum) {
  const int n = 8;
  std::vector<Complex> v(static_cast<std::size_t>(n) * n * n, Complex{0, 0});
  v[0] = {1, 0};
  fft3d(v, n, n, n, Direction::Forward);
  for (const auto& c : v) ASSERT_NEAR(std::abs(c - Complex{1, 0}), 0.0, 1e-10);
}

TEST(Fft3D, RoundTrip) {
  const int n = 8;
  auto orig = random_signal(static_cast<std::size_t>(n) * n * n, 99);
  auto v = orig;
  fft3d(v, n, n, n, Direction::Forward);
  fft3d(v, n, n, n, Direction::Inverse);
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_NEAR(std::abs(v[i] - orig[i]), 0.0, 1e-9);
}

TEST(Fft3D, SeparablePlaneWave) {
  const int n = 8;
  std::vector<Complex> v(static_cast<std::size_t>(n) * n * n);
  const int kx = 2, ky = 3, kz = 1;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        const double ang =
            2 * std::numbers::pi * (kx * x + ky * y + kz * z) / static_cast<double>(n);
        v[(static_cast<std::size_t>(z) * n + y) * n + x] = {std::cos(ang), std::sin(ang)};
      }
  fft3d(v, n, n, n, Direction::Forward);
  const std::size_t hit = (static_cast<std::size_t>(kz) * n + ky) * n + kx;
  EXPECT_NEAR(std::abs(v[hit]), static_cast<double>(n) * n * n, 1e-7);
  double rest = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (i != hit) rest = std::max(rest, std::abs(v[i]));
  EXPECT_LT(rest, 1e-7);
}

class SlabFft : public ::testing::TestWithParam<int> {};

TEST_P(SlabFft, MatchesSerialFft3D) {
  const int p = GetParam();
  const int n = 16;
  auto global = random_signal(static_cast<std::size_t>(n) * n * n, 1234);
  auto serial = global;
  fft3d(serial, n, n, n, Direction::Forward);

  parc::Runtime::run(p, [&](parc::Rank& r) {
    SlabFft3D plan(r, n);
    const int z0 = plan.z_offset();
    std::vector<Complex> slab(plan.local_size());
    for (int zl = 0; zl < plan.local_planes(); ++zl)
      for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
          slab[plan.local_index(zl, y, x)] =
              global[(static_cast<std::size_t>(z0 + zl) * n + y) * n + x];

    const auto out = plan.forward(slab);
    // Output is transposed: out[yl][z][x] with yl local to this rank.
    const int y0 = r.rank() * plan.local_planes();
    for (int yl = 0; yl < plan.local_planes(); ++yl)
      for (int z = 0; z < n; ++z)
        for (int x = 0; x < n; ++x) {
          const Complex expect =
              serial[(static_cast<std::size_t>(z) * n + (y0 + yl)) * n + x];
          const Complex got = out[(static_cast<std::size_t>(yl) * n + z) * n + x];
          ASSERT_NEAR(std::abs(got - expect), 0.0, 1e-8);
        }

    // Inverse returns the original z-slab layout.
    const auto back = plan.inverse(out);
    for (std::size_t i = 0; i < back.size(); ++i)
      ASSERT_NEAR(std::abs(back[i] - slab[i]), 0.0, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SlabFft, ::testing::Values(1, 2, 4, 8));

TEST(SlabFft, RejectsIndivisibleRankCount) {
  parc::Runtime::run(3, [](parc::Rank& r) {
    EXPECT_THROW(SlabFft3D(r, 16), std::invalid_argument);
  });
}

}  // namespace
}  // namespace hotlib::fft
