// Tests for src/vortex: the regularized Biot-Savart kernel and its analytic
// gradient, invariants (total strength, linear impulse), ring self-induction
// physics, treecode-vs-direct accuracy and M4' remeshing conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vortex/remesh.hpp"
#include "vortex/vpm.hpp"

namespace hotlib::vortex {
namespace {

TEST(Kernel, SingleSourceAnalyticVelocity) {
  // alpha = (0,0,a) at origin, target on the x axis: u = -1/(4pi) d x alpha.
  const Vec3d xi{2, 0, 0}, xj{0, 0, 0}, aj{0, 0, 3};
  Vec3d u{};
  vortex_kernel(xi, xj, aj, 0.0, u, nullptr, nullptr);
  // d x alpha = (2,0,0) x (0,0,3) = (0*3-0*0, 0*0-2*3, 0) = (0,-6,0).
  const double expect = -(1.0 / (4 * std::numbers::pi)) * (-6.0) / 8.0;
  EXPECT_NEAR(u.y, expect, 1e-14);
  EXPECT_NEAR(u.x, 0.0, 1e-14);
  EXPECT_NEAR(u.z, 0.0, 1e-14);
}

TEST(Kernel, SelfInteractionVanishes) {
  const Vec3d x{1, 2, 3}, a{0.5, -0.2, 0.1};
  Vec3d u{}, da{};
  vortex_kernel(x, x, a, 0.01, u, &a, &da);
  EXPECT_NEAR(norm(u), 0.0, 1e-15);
  EXPECT_NEAR(norm(da), 0.0, 1e-15);
}

TEST(Kernel, StretchingMatchesFiniteDifferenceGradient) {
  // dalpha = (alpha_i . grad) u must match numerical differentiation of the
  // velocity field.
  const Vec3d xj{0.2, -0.1, 0.4}, aj{0.3, 0.8, -0.5};
  const Vec3d xi{1.0, 0.7, -0.2}, ai{-0.4, 0.25, 0.6};
  const double sigma2 = 0.05;
  Vec3d u{}, da{};
  vortex_kernel(xi, xj, aj, sigma2, u, &ai, &da);

  const double h = 1e-6;
  Vec3d fd{};
  for (int c = 0; c < 3; ++c) {
    Vec3d xp = xi, xm = xi;
    xp[static_cast<std::size_t>(c)] += h;
    xm[static_cast<std::size_t>(c)] -= h;
    Vec3d up{}, um{};
    vortex_kernel(xp, xj, aj, sigma2, up, nullptr, nullptr);
    vortex_kernel(xm, xj, aj, sigma2, um, nullptr, nullptr);
    fd += ai[static_cast<std::size_t>(c)] * ((up - um) / (2 * h));
  }
  EXPECT_NEAR(norm(da - fd), 0.0, 1e-7);
}

TEST(Ring, ClosedRingHasZeroTotalStrength) {
  const auto ring = make_ring(64, 1.0, 2.0, {0, 0, 0}, {0, 0, 1}, 0.2);
  EXPECT_NEAR(norm(ring.total_strength()), 0.0, 1e-12);
}

TEST(Ring, ImpulseAlongAxis) {
  // I = 1/2 sum x cross alpha = Gamma * pi R^2 * axis for a thin ring.
  const double gamma = 2.0, radius = 1.5;
  const auto ring = make_ring(128, radius, gamma, {0, 0, 0}, {0, 0, 1}, 0.2);
  const Vec3d imp = ring.linear_impulse();
  EXPECT_NEAR(imp.z, gamma * std::numbers::pi * radius * radius, 1e-2);
  EXPECT_NEAR(imp.x, 0.0, 1e-10);
  EXPECT_NEAR(imp.y, 0.0, 1e-10);
}

TEST(Ring, SelfInducedTranslationAlongAxis) {
  // A thin vortex ring propagates along its axis at roughly
  // Gamma/(4 pi R) (ln(8R/sigma) - 0.558) (Kelvin). Check direction and
  // magnitude within a factor of ~1.5 (our core model differs in detail).
  const double gamma = 1.0, radius = 1.0, sigma = 0.1;
  auto ring = make_ring(256, radius, gamma, {0, 0, 0}, {0, 0, 1}, sigma);
  direct_velocities(ring);
  RunningStats uz;
  for (const auto& v : ring.vel) uz.add(v.z);
  const double kelvin = gamma / (4 * std::numbers::pi * radius) *
                        (std::log(8 * radius / sigma) - 0.558);
  EXPECT_GT(uz.mean(), 0.0);
  EXPECT_NEAR(uz.mean() / kelvin, 1.0, 0.5);
  // All segments move together (rigid translation of a perfect ring).
  EXPECT_LT(uz.stddev(), 1e-6 * std::abs(uz.mean()) + 1e-9);
}

TEST(Tree, MatchesDirectVelocities) {
  // Random vortex blob: treecode within a fraction of a percent of direct.
  VortexParticles p;
  Xoshiro256ss rng(3);
  const std::size_t n = 600;
  p.resize(n);
  p.sigma = 0.05;
  for (std::size_t i = 0; i < n; ++i) {
    p.pos[i] = rng.in_sphere(1.0);
    p.alpha[i] = {rng.normal(), rng.normal(), rng.normal()};
    p.alpha[i] *= 0.01;
  }
  VortexParticles ref = p;
  direct_velocities(ref);

  // The vortex far field is monopole-only, so the error scales like theta^3;
  // check both the absolute accuracy at a production theta and the scaling.
  auto rel_err = [&](double theta) {
    VortexParticles q = p;
    const auto tally = tree_velocities(q, hot::Mac{.theta = theta});
    EXPECT_LT(tally.interactions(), n * n);  // actually used the tree
    RunningStats err, mag;
    for (std::size_t i = 0; i < n; ++i) {
      err.add(norm(q.vel[i] - ref.vel[i]));
      mag.add(norm(ref.vel[i]));
    }
    RunningStats serr, smag;
    for (std::size_t i = 0; i < n; ++i) {
      serr.add(norm(q.dalpha[i] - ref.dalpha[i]));
      smag.add(norm(ref.dalpha[i]));
    }
    EXPECT_LT(serr.rms(), 10 * err.rms() / mag.rms() * smag.rms() + 1e-12);
    return err.rms() / mag.rms();
  };
  const double e3 = rel_err(0.3);
  const double e15 = rel_err(0.15);
  EXPECT_LT(e3, 6e-2);
  EXPECT_LT(e15, 1.5e-2);
  EXPECT_LT(e15, 0.4 * e3);  // ~theta^3 improvement
}

TEST(Step, RingAdvancesAndConservesImpulse) {
  auto ring = make_ring(128, 1.0, 1.0, {0, 0, 0}, {0, 0, 1}, 0.15);
  const Vec3d imp0 = ring.linear_impulse();
  const double z0 = [&] {
    double z = 0;
    for (const auto& x : ring.pos) z += x.z;
    return z / static_cast<double>(ring.size());
  }();
  for (int s = 0; s < 10; ++s) step_rk2(ring, 0.05, hot::Mac{.theta = 0.3});
  double z1 = 0;
  for (const auto& x : ring.pos) z1 += x.z;
  z1 /= static_cast<double>(ring.size());
  EXPECT_GT(z1, z0 + 0.01);  // moved along +z
  const Vec3d imp1 = ring.linear_impulse();
  EXPECT_NEAR(norm(imp1 - imp0), 0.0, 0.02 * norm(imp0));
}

TEST(Remesh, M4PrimeIsPartitionOfUnity) {
  // For any offset t in [0,1), the weights at the four covering nodes sum
  // to exactly 1.
  for (double t : {0.0, 0.13, 0.5, 0.77, 0.99}) {
    const double sum =
        m4prime(t + 1.0) + m4prime(t) + m4prime(1.0 - t) + m4prime(2.0 - t);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(m4prime(2.0), 0.0);
  EXPECT_DOUBLE_EQ(m4prime(0.0), 1.0);
}

TEST(Remesh, ConservesTotalStrengthAndImpulse) {
  VortexParticles p;
  Xoshiro256ss rng(9);
  p.resize(500);
  p.sigma = 0.1;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.pos[i] = rng.in_sphere(0.8);
    p.alpha[i] = Vec3d{rng.normal(), rng.normal(), rng.normal()} * 0.01;
  }
  const Vec3d s0 = p.total_strength();
  const Vec3d i0 = p.linear_impulse();
  const auto q = remesh(p, {.keep_fraction = 0.0});
  EXPECT_NEAR(norm(q.total_strength() - s0), 0.0, 1e-10);
  EXPECT_NEAR(norm(q.linear_impulse() - i0), 0.0,
              0.02 * norm(i0) + 1e-10);  // 2nd-order accurate
  EXPECT_DOUBLE_EQ(q.sigma, p.sigma);
}

TEST(Remesh, GrowsParticleCountForSpreadVorticity) {
  // The paper's run grew 57k -> 360k particles via remeshing; at our scale a
  // thin ring remeshed onto an overlapping lattice must also gain particles.
  auto ring = make_ring(64, 1.0, 1.0, {0, 0, 0}, {0, 0, 1}, 0.3);
  const auto q = remesh(ring, {.overlap = 2.0, .keep_fraction = 1e-6});
  EXPECT_GT(q.size(), ring.size());
}

TEST(Merge, ConcatenatesSets) {
  auto a = make_ring(16, 1.0, 1.0, {0, 0, 0}, {0, 0, 1}, 0.1);
  auto b = make_ring(24, 1.0, 1.0, {0, 0, 2}, {0, 0, 1}, 0.1);
  const auto m = merge(a, b);
  EXPECT_EQ(m.size(), 40u);
  EXPECT_NEAR(norm(m.total_strength()), 0.0, 1e-12);
}

}  // namespace
}  // namespace hotlib::vortex
