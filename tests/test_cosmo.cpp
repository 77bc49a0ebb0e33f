// Tests for src/cosmo: BBKS spectrum, Gaussian random field + Zel'dovich
// displacements, spherical-region construction with the 8x-mass buffer, the
// FoF halo finder, density projection and the end-to-end CosmologySim.
#include <gtest/gtest.h>

#include "cosmo/fof.hpp"
#include "cosmo/ics.hpp"
#include "cosmo/power_spectrum.hpp"
#include "cosmo/project.hpp"
#include "cosmo/simulation.hpp"
#include "gravity/models.hpp"
#include "parc/parc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hotlib::cosmo {
namespace {

TEST(CdmSpectrum, TransferLimits) {
  CdmSpectrum ps;
  EXPECT_NEAR(ps.transfer(1e-6), 1.0, 1e-3);     // T -> 1 on large scales
  EXPECT_LT(ps.transfer(10.0), 0.01);            // strong small-scale damping
  EXPECT_GT(ps.transfer(0.1), ps.transfer(1.0));  // monotone decreasing
}

TEST(CdmSpectrum, PowerTurnsOver) {
  CdmSpectrum ps;
  // P(k) rises as ~k on large scales and falls on small scales.
  EXPECT_GT(ps(0.02), ps(0.002));
  EXPECT_GT(ps(0.05), ps(5.0));
}

TEST(DisplacementField, DeltaHasZeroMeanAndExpectedVariance) {
  IcsConfig cfg;
  cfg.grid_n = 16;
  cfg.spectrum.amplitude = 50.0;
  const auto f = make_displacement_field(cfg);
  RunningStats s;
  for (double d : f.delta) s.add(d);
  EXPECT_NEAR(s.mean(), 0.0, 1e-10);  // DC mode zeroed
  EXPECT_GT(s.stddev(), 0.0);
}

TEST(DisplacementField, DivergenceOfPsiIsMinusDelta) {
  // Zel'dovich: div psi = -delta. Check with centered differences; the field
  // is band-limited so FD agrees to a few percent when power sits at low k.
  IcsConfig cfg;
  cfg.grid_n = 16;
  cfg.seed = 7;
  cfg.spectrum.amplitude = 10.0;
  cfg.spectrum.spectral_index = -3.0;  // concentrate power at low k
  const auto f = make_displacement_field(cfg);
  const int n = cfg.grid_n;
  const double h = cfg.box_mpc / n;
  auto idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>((z + n) % n) * n + (y + n) % n) * n + (x + n) % n;
  };
  RunningStats ratio_err;
  RunningStats mag;
  for (double d : f.delta) mag.add(d);
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        const double div =
            (f.psi_x[idx(x + 1, y, z)] - f.psi_x[idx(x - 1, y, z)] +
             f.psi_y[idx(x, y + 1, z)] - f.psi_y[idx(x, y - 1, z)] +
             f.psi_z[idx(x, y, z + 1)] - f.psi_z[idx(x, y, z - 1)]) /
            (2 * h);
        ratio_err.add(div + f.delta[idx(x, y, z)]);
      }
  EXPECT_LT(ratio_err.rms(), 0.1 * mag.rms());
}

TEST(SphericalIcs, BufferParticlesAreEightTimesHeavier) {
  IcsConfig cfg;
  cfg.grid_n = 16;
  const auto b = make_spherical_ics(cfg, 0.3, 0.5);
  ASSERT_GT(b.size(), 0u);
  double m_lo = 1e30, m_hi = 0;
  std::size_t n_hi = 0;
  for (double m : b.mass) {
    m_lo = std::min(m_lo, m);
    m_hi = std::max(m_hi, m);
    if (m > 1e-3) ++n_hi;  // heavier class (8x of 1/16^3)
  }
  EXPECT_NEAR(m_hi / m_lo, 8.0, 1e-9);
  EXPECT_GT(n_hi, 0u);
  // Heavy particles live outside the inner radius, light ones inside.
  const Vec3d center = Vec3d::all(cfg.box_mpc / 2);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const bool heavy = b.mass[i] > 1e-3;
    const double undisplaced_ok = 0.05 * cfg.box_mpc;  // displacement slack
    const double r = norm(b.pos[i] - center);
    if (heavy)
      EXPECT_GT(r, 0.3 * cfg.box_mpc - undisplaced_ok);
    else
      EXPECT_LT(r, 0.3 * cfg.box_mpc + undisplaced_ok);
  }
}

TEST(SphericalIcs, PositionsLieInsideTheDomain) {
  IcsConfig cfg;
  cfg.grid_n = 16;
  const auto b = make_spherical_ics(cfg);
  ASSERT_GT(b.size(), 0u);
  const auto domain = ics_domain(cfg);
  for (const auto& x : b.pos) EXPECT_TRUE(domain.contains(x));
}

TEST(SphericalIcs, DisplacementsScaleWithGrowth) {
  IcsConfig small;
  small.grid_n = 8;
  small.growth = 0.1;
  small.spectrum.amplitude = 20.0;
  IcsConfig big = small;
  big.growth = 0.4;
  const auto a = make_spherical_ics(small);
  const auto b = make_spherical_ics(big);
  // Growth moves no particle across the lattice cut, and velocities are
  // proportional to growth x psi: 4x larger.
  ASSERT_EQ(a.size(), b.size());
  RunningStats va, vb;
  for (const auto& v : a.vel) va.add(norm(v));
  for (const auto& v : b.vel) vb.add(norm(v));
  EXPECT_NEAR(vb.mean() / va.mean(), 4.0, 1e-6);
}

TEST(Fof, FindsTwoWellSeparatedClumps) {
  hot::Bodies b;
  hotlib::Xoshiro256ss rng(5);
  for (int i = 0; i < 300; ++i)
    b.push_back(rng.in_sphere(0.1) + Vec3d{1, 1, 1}, {}, 1.0, b.size());
  for (int i = 0; i < 200; ++i)
    b.push_back(rng.in_sphere(0.1) + Vec3d{3, 3, 3}, {}, 1.0, b.size());
  hot::Tree tree;
  tree.build(b.pos, b.mass, gravity::fit_domain(b));
  const auto fof = friends_of_friends(b, tree, 0.08, 10);
  ASSERT_EQ(fof.halos.size(), 2u);
  EXPECT_EQ(fof.halos[0].size, 300u);
  EXPECT_EQ(fof.halos[1].size, 200u);
  EXPECT_NEAR(fof.halos[0].center.x, 1.0, 0.05);
  EXPECT_NEAR(fof.halos[1].center.x, 3.0, 0.05);
}

TEST(Fof, LinkingLengthControlsMerging) {
  hot::Bodies b;
  // Two clumps 0.5 apart: tiny linking length separates, large one merges.
  hotlib::Xoshiro256ss rng(6);
  for (int i = 0; i < 100; ++i) b.push_back(rng.in_sphere(0.05), {}, 1.0, b.size());
  for (int i = 0; i < 100; ++i)
    b.push_back(rng.in_sphere(0.05) + Vec3d{0.5, 0, 0}, {}, 1.0, b.size());
  hot::Tree tree;
  tree.build(b.pos, b.mass, gravity::fit_domain(b));
  EXPECT_EQ(friends_of_friends(b, tree, 0.05, 10).halos.size(), 2u);
  EXPECT_EQ(friends_of_friends(b, tree, 0.6, 10).halos.size(), 1u);
}

TEST(Project, DepositsAllMassInsideFrame) {
  hot::Bodies b;
  hotlib::Xoshiro256ss rng(8);
  for (int i = 0; i < 1000; ++i) b.push_back(rng.in_cube(), {}, 0.001, i);
  PgmImage img(64, 64);
  project_density(b, 2, 0.0, 1.0, img);
  double total = 0;
  for (std::size_t y = 0; y < 64; ++y)
    for (std::size_t x = 0; x < 64; ++x) total += img.at(x, y);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HubbleFlow, RadialVelocityProfile) {
  hot::Bodies b;
  b.push_back({2, 0, 0}, {}, 1.0, 0);
  b.push_back({0, -4, 0}, {}, 1.0, 1);
  add_hubble_flow(b, {0, 0, 0}, 0.5);
  EXPECT_NEAR(b.vel[0].x, 1.0, 1e-12);
  EXPECT_NEAR(b.vel[1].y, -2.0, 1e-12);
}

class CosmoSim : public ::testing::TestWithParam<int> {};

TEST_P(CosmoSim, RunsStepsAndConservesBodies) {
  const int p = GetParam();
  SimConfig cfg;
  cfg.ics.grid_n = 16;
  cfg.ics.spectrum.amplitude = 30.0;
  cfg.dt = 0.2;
  std::vector<std::uint64_t> totals(1, 0);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    CosmologySim sim(r, cfg);
    const std::uint64_t expect = sim.total_bodies();
    StepStats s{};
    for (int i = 0; i < 2; ++i) s = sim.step();
    EXPECT_GT(s.tally.interactions(), 0u);
    EXPECT_LT(s.potential, 0.0);
    const std::uint64_t now =
        r.allreduce(static_cast<std::uint64_t>(sim.local().size()), parc::Sum{});
    EXPECT_EQ(now, expect);
    if (r.rank() == 0) totals[0] = now;
  });
  EXPECT_GT(totals[0], 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CosmoSim, ::testing::Values(1, 2, 4));

TEST(CosmoSim, GravityDeepensThePotentialWell) {
  // Evolving the Zel'dovich field under self-gravity makes the system more
  // bound: the (negative) total potential energy must decrease.
  SimConfig cfg;
  cfg.ics.grid_n = 16;
  cfg.ics.spectrum.amplitude = 80.0;
  cfg.ics.growth = 5.0;
  cfg.hubble = 0.0;
  cfg.dt = 1.0;
  parc::Runtime::run(2, [&](parc::Rank& r) {
    CosmologySim sim(r, cfg);
    const StepStats first = sim.step();
    StepStats last{};
    for (int i = 0; i < 5; ++i) last = sim.step();
    EXPECT_LT(last.potential, first.potential);
  });
}

}  // namespace
}  // namespace hotlib::cosmo
