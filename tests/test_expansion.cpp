// Tests for the Einstein-de Sitter comoving integration: scale-factor
// algebra, the closed-form kick/drift factors, and the flagship physics
// check — a linear plane wave growing as D+(a) = a when the comoving
// leapfrog is driven by the wave's exact periodic force.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "cosmo/expansion.hpp"
#include "util/stats.hpp"

namespace hotlib::cosmo {
namespace {

TEST(Eds, ScaleFactorAlgebra) {
  const EdsCosmology c(0.7);
  EXPECT_NEAR(c.a_of_t(c.t0()), 1.0, 1e-12);
  EXPECT_NEAR(c.t_of_a(1.0), c.t0(), 1e-12);
  for (double a : {0.1, 0.5, 0.9, 2.0})
    EXPECT_NEAR(c.a_of_t(c.t_of_a(a)), a, 1e-12);
  // a grows like t^{2/3}.
  EXPECT_NEAR(c.a_of_t(8.0 * c.t0()), 4.0, 1e-12);
  // H(a) = H0 a^{-3/2}: da/dt at t0 equals H0.
  const double h = 1e-7;
  const double adot = (c.a_of_t(c.t0() + h) - c.a_of_t(c.t0() - h)) / (2 * h);
  EXPECT_NEAR(adot, 0.7, 1e-5);
  EXPECT_NEAR(c.hubble_of_a(1.0), 0.7, 1e-12);
}

TEST(Eds, FactorsMatchNumericalQuadrature) {
  const EdsCosmology c(1.3);
  const double t1 = 0.4 * c.t0(), t2 = 1.7 * c.t0();
  const int n = 200000;
  double kick = 0, drift = 0;
  for (int i = 0; i < n; ++i) {
    const double t = t1 + (t2 - t1) * (i + 0.5) / n;
    const double a = c.a_of_t(t);
    kick += (t2 - t1) / n / a;
    drift += (t2 - t1) / n / (a * a);
  }
  EXPECT_NEAR(c.kick_factor(t1, t2), kick, 1e-6 * kick);
  EXPECT_NEAR(c.drift_factor(t1, t2), drift, 1e-6 * drift);
}

TEST(Eds, FactorsAreAdditiveOverSubintervals) {
  const EdsCosmology c(2.0);
  const double t1 = 0.2, t2 = 0.35, t3 = 0.6;
  EXPECT_NEAR(c.kick_factor(t1, t3),
              c.kick_factor(t1, t2) + c.kick_factor(t2, t3), 1e-14);
  EXPECT_NEAR(c.drift_factor(t1, t3),
              c.drift_factor(t1, t2) + c.drift_factor(t2, t3), 1e-14);
}

TEST(Eds, LinearPlaneWaveGrowsLikeScaleFactor) {
  // Zel'dovich plane wave in a unit periodic box of unit mass (Omega = 1:
  // H0^2 = 8 pi G / 3 with G = 1). Evolve a = 0.5 -> 0.8 with the comoving
  // leapfrog: the displacement amplitude must grow by a factor
  // 0.8 / 0.5 = 1.6 (linear growing mode D+ = a).
  const double h0 = std::sqrt(8.0 * std::numbers::pi / 3.0);
  const EdsCosmology cosmo(h0);
  const int n = 8;
  const double amp0 = 0.004;  // deeply linear (|delta| ~ 2 pi amp n ~ 0.2)
  const double a_start = 0.5, a_end = 0.8;

  hot::Bodies b;
  const double m = 1.0 / (n * n * n);
  std::vector<double> psi_x;  // per-particle unit displacement
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        const Vec3d q{(x + 0.5) / n, (y + 0.5) / n, (z + 0.5) / n};
        const double psi = amp0 * std::sin(2.0 * std::numbers::pi * q.x);
        psi_x.push_back(psi);
        // x = q + a psi; p = a^2 dx/dt = a^3 H(a) psi (growing mode D = a).
        const double p = std::pow(a_start, 3) * cosmo.hubble_of_a(a_start) * psi;
        b.push_back(q + Vec3d{a_start * psi, 0, 0}, Vec3d{p, 0, 0}, m, b.size());
      }

  // The exact periodic force of a plane-parallel perturbation, G = 1 on
  // comoving positions: each particle stands for a uniform x-sheet of its
  // mass, and with the mean density removed a sheet at minimum-image
  // distance d pulls with -2 pi G m (sign(d) - 2 d / L). No transverse part.
  auto forces = [&](hot::Bodies& bb) {
    for (std::size_t i = 0; i < bb.size(); ++i) {
      double sum = 0;
      for (std::size_t j = 0; j < bb.size(); ++j) {
        double d = bb.pos[i].x - bb.pos[j].x;
        d -= std::nearbyint(d);  // minimum image, L = 1
        sum += bb.mass[j] * (static_cast<double>((d > 0) - (d < 0)) - 2.0 * d);
      }
      bb.acc[i] = Vec3d{-2.0 * std::numbers::pi * sum, 0, 0};
    }
  };

  forces(b);
  double t = cosmo.t_of_a(a_start);
  const double t_end = cosmo.t_of_a(a_end);
  const int steps = 64;
  const double dt = (t_end - t) / steps;
  for (int s = 0; s < steps; ++s) {
    comoving_kdk_step(b, cosmo, t, dt, forces);
    t += dt;
    // Periodic wrap.
    for (auto& x : b.pos) x.x -= std::floor(x.x);
  }

  // Measure the displacement amplitude by projecting onto the input mode.
  double num = 0, den = 0;
  std::size_t i = 0;
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x, ++i) {
        const double qx = (x + 0.5) / n;
        double dx = b.pos[i].x - qx;
        dx -= std::nearbyint(dx);  // wrap
        num += dx * psi_x[i];
        den += psi_x[i] * psi_x[i];
      }
  const double amplitude = num / den;  // current D(a)
  EXPECT_NEAR(amplitude / a_start, a_end / a_start, 1e-4 * (a_end / a_start))
      << "grew to D = " << amplitude << ", expected " << a_end;
  // Transverse directions stay clean.
  RunningStats vy;
  for (const auto& v : b.vel) vy.add(std::abs(v.y) + std::abs(v.z));
  EXPECT_EQ(vy.max(), 0.0);
}

}  // namespace
}  // namespace hotlib::cosmo
