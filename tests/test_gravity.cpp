// Tests for the gravity module: the Karp reciprocal-sqrt kernel, the direct
// O(N^2) solvers (serial and ring-parallel), treecode accuracy against direct
// summation, the Salmon-Warren error bound, the full parallel pipeline and
// the leapfrog integrator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "gravity/direct.hpp"
#include "gravity/evaluate.hpp"
#include "gravity/evaluator.hpp"
#include "gravity/integrator.hpp"
#include "gravity/kernels.hpp"
#include "gravity/models.hpp"
#include "gravity/parallel.hpp"
#include "parc/parc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hotlib::gravity {
namespace {

TEST(KarpRsqrt, FullDoublePrecisionOverWideRange) {
  Xoshiro256ss rng(1);
  for (int i = 0; i < 100000; ++i) {
    const double x = std::exp(rng.uniform(-60.0, 60.0));
    const double y = karp_rsqrt(x);
    const double ref = 1.0 / std::sqrt(x);
    ASSERT_NEAR(y / ref, 1.0, 1e-15) << "x=" << x;
  }
}

TEST(KarpRsqrt, TableSeededVariantMatches) {
  const KarpRsqrtTable table;
  Xoshiro256ss rng(2);
  for (int i = 0; i < 100000; ++i) {
    const double x = std::exp(rng.uniform(-60.0, 60.0));
    const double ref = 1.0 / std::sqrt(x);
    ASSERT_NEAR(table(x) / ref, 1.0, 1e-15) << "x=" << x;
  }
}

TEST(KarpRsqrt, EdgeCasesMatchIeee) {
  // Zeros, infinities, NaN and negatives must match 1.0 / std::sqrt(x)
  // exactly — the seed bit-hack used to turn them into large finite garbage.
  const KarpRsqrtTable table;
  EXPECT_EQ(karp_rsqrt(0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(table(0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(karp_rsqrt(-0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(table(-0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(karp_rsqrt(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(table(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isnan(karp_rsqrt(-1.0)));
  EXPECT_TRUE(std::isnan(table(-1.0)));
  EXPECT_TRUE(std::isnan(karp_rsqrt(-std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(table(-std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(karp_rsqrt(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(table(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(karp_rsqrt(-std::numeric_limits<double>::denorm_min())));
  EXPECT_TRUE(std::isnan(table(-std::numeric_limits<double>::denorm_min())));
}

TEST(KarpRsqrt, DenormalsFullPrecision) {
  // Denormal inputs have a zero exponent field; both variants renormalise by
  // an exact power of two and must keep full precision down to denorm_min.
  const KarpRsqrtTable table;
  for (double x : {std::numeric_limits<double>::denorm_min(),
                   0.5 * std::numeric_limits<double>::min(),
                   0x1.fffffffffffffp-1023, 0x1p-1074, 0x1.8p-1060}) {
    const double ref = 1.0 / std::sqrt(x);
    ASSERT_NEAR(karp_rsqrt(x) / ref, 1.0, 1e-15) << "x=" << x;
    ASSERT_NEAR(table(x) / ref, 1.0, 1e-15) << "x=" << x;
  }
}

TEST(KarpRsqrt, FullRangeSweepBothVariants) {
  // Every binade from denorm_min to DBL_MAX, several mantissas per binade,
  // both variants against 1.0 / std::sqrt(x).
  const KarpRsqrtTable table;
  for (int e = -1074; e <= 1023; ++e) {
    for (double frac : {1.0, 1.171875, 1.5, 1.984375}) {
      const double x = std::ldexp(frac, e);
      if (x == 0.0 || std::isinf(x)) continue;
      const double ref = 1.0 / std::sqrt(x);
      ASSERT_NEAR(karp_rsqrt(x) / ref, 1.0, 1e-15) << "e=" << e << " frac=" << frac;
      ASSERT_NEAR(table(x) / ref, 1.0, 1e-15) << "e=" << e << " frac=" << frac;
    }
  }
}

TEST(Kernels, CoincidentUnsoftenedParticlesDiverge) {
  // Two particles at the same point with eps = 0: the 1/r potential must
  // diverge (infinite, not large-finite-garbage as the unguarded seed gave).
  const Vec3d x{0.25, -1.5, 3.0};
  Vec3d a{};
  double p = 0;
  pp_accumulate(x, x, 2.0, /*eps2=*/0.0, a, p);
  EXPECT_TRUE(std::isinf(p));
  EXPECT_LT(p, 0.0);
  // With softening the same pair is regular and finite.
  Vec3d a2{};
  double p2 = 0;
  pp_accumulate(x, x, 2.0, /*eps2=*/0.01, a2, p2);
  EXPECT_TRUE(std::isfinite(p2));
  EXPECT_NEAR(p2, -2.0 / 0.1, 1e-12);
  EXPECT_EQ(a2, Vec3d{});
}

TEST(Kernels, PairPotentialAndForceConsistent) {
  // Finite-difference check: acc = -grad(pot) for the softened kernel.
  const Vec3d xj{0.3, -0.2, 0.7};
  const double mj = 2.0, eps2 = 0.01;
  const Vec3d xi{1.0, 1.0, 1.0};
  Vec3d a{};
  double p = 0;
  pp_accumulate(xi, xj, mj, eps2, a, p);
  const double h = 1e-6;
  for (int ax = 0; ax < 3; ++ax) {
    Vec3d xp = xi, xm = xi;
    xp[static_cast<std::size_t>(ax)] += h;
    xm[static_cast<std::size_t>(ax)] -= h;
    Vec3d dummy{};
    double pp = 0, pm = 0;
    pp_accumulate(xp, xj, mj, eps2, dummy, pp);
    pp_accumulate(xm, xj, mj, eps2, dummy, pm);
    EXPECT_NEAR(a[static_cast<std::size_t>(ax)], -(pp - pm) / (2 * h), 1e-5);
  }
}

TEST(Kernels, CellMonopoleEqualsPointMass) {
  hot::Cell c;
  c.com = {0.5, 0.5, 0.5};
  c.mass = 3.0;
  c.quad = {};
  const Vec3d xi{2, 2, 2};
  Vec3d a_cell{}, a_pp{};
  double p_cell = 0, p_pp = 0;
  pc_accumulate(xi, c, /*use_quad=*/true, 0.0, a_cell, p_cell);
  pp_accumulate(xi, c.com, c.mass, 0.0, a_pp, p_pp);
  EXPECT_NEAR(a_cell.x, a_pp.x, 1e-14);
  EXPECT_NEAR(p_cell, p_pp, 1e-14);
}

TEST(Kernels, QuadrupoleReducesFarFieldError) {
  // A dumbbell far away: quadrupole correction must shrink the error vs the
  // exact two-point force.
  const Vec3d p1{0.1, 0, 0}, p2{-0.1, 0, 0};
  const double m = 0.5;
  hot::RawMoments raw;
  raw.accumulate(p1, m);
  raw.accumulate(p2, m);
  hot::Cell c;
  finalize_moments(raw, 0.1, c);

  const Vec3d xi{0.9, 0.7, 0.4};
  Vec3d exact{}, mono{}, quad{};
  double pe = 0, pm = 0, pq = 0;
  pp_accumulate(xi, p1, m, 0.0, exact, pe);
  pp_accumulate(xi, p2, m, 0.0, exact, pe);
  pc_accumulate(xi, c, false, 0.0, mono, pm);
  pc_accumulate(xi, c, true, 0.0, quad, pq);
  EXPECT_LT(norm(quad - exact), 0.3 * norm(mono - exact));
  EXPECT_LT(std::abs(pq - pe), 0.3 * std::abs(pm - pe));
}

TEST(Direct, NewtonThirdLawMomentumConservation) {
  auto b = plummer_sphere(300, 7);
  direct_forces(b.pos, b.mass, 0.01, 1.0, b.acc, b.pot);
  Vec3d f{};
  for (std::size_t i = 0; i < b.size(); ++i) f += b.mass[i] * b.acc[i];
  EXPECT_NEAR(norm(f), 0.0, 1e-10);
}

TEST(Direct, TwoBodyAnalytic) {
  std::vector<Vec3d> pos{{0, 0, 0}, {2, 0, 0}};
  std::vector<double> mass{3.0, 5.0};
  std::vector<Vec3d> acc(2);
  std::vector<double> pot(2);
  const auto tally = direct_forces(pos, mass, 0.0, 1.0, acc, pot);
  EXPECT_EQ(tally.interactions(), 2u);
  EXPECT_NEAR(acc[0].x, 5.0 / 4.0, 1e-12);
  EXPECT_NEAR(acc[1].x, -3.0 / 4.0, 1e-12);
  EXPECT_NEAR(pot[0], -5.0 / 2.0, 1e-12);
  EXPECT_NEAR(pot[1], -3.0 / 2.0, 1e-12);
}

class RingDirect : public ::testing::TestWithParam<int> {};

TEST_P(RingDirect, MatchesSerialAcrossRankCounts) {
  const int p = GetParam();
  const std::size_t n = 240;
  auto all = plummer_sphere(n, 17);
  std::vector<Vec3d> ref_acc(n);
  std::vector<double> ref_pot(n);
  const auto serial_tally =
      direct_forces(all.pos, all.mass, 0.05, 1.0, ref_acc, ref_pot);

  std::vector<std::uint64_t> total(1, 0);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    // Contiguous blocks.
    const std::size_t lo = n * static_cast<std::size_t>(r.rank()) / p;
    const std::size_t hi = n * (static_cast<std::size_t>(r.rank()) + 1) / p;
    std::vector<Vec3d> pos(all.pos.begin() + lo, all.pos.begin() + hi);
    std::vector<double> mass(all.mass.begin() + lo, all.mass.begin() + hi);
    std::vector<Vec3d> acc(hi - lo);
    std::vector<double> pot(hi - lo);
    const auto tally = ring_direct_forces(r, pos, mass, 0.05, 1.0, acc, pot);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      ASSERT_NEAR(norm(acc[i] - ref_acc[lo + i]), 0.0, 1e-10);
      ASSERT_NEAR(pot[i], ref_pot[lo + i], 1e-10);
    }
    const auto sum = r.allreduce(tally.body_body, parc::Sum{});
    if (r.rank() == 0) total[0] = sum;
  });
  EXPECT_EQ(total[0], serial_tally.body_body);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RingDirect, ::testing::Values(1, 2, 3, 4, 6));

double tree_rms_error(std::size_t n, const hot::Mac& mac, double softening = 0.02) {
  auto b = plummer_sphere(n, 29);
  const auto domain = fit_domain(b);
  std::vector<Vec3d> ref_acc(n);
  std::vector<double> ref_pot(n);
  direct_forces(b.pos, b.mass, softening, 1.0, ref_acc, ref_pot);

  hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 8});
  TreeForceConfig cfg{.mac = mac, .softening = softening, .G = 1.0};
  b.clear_forces();
  tree_forces(tree, b.pos, b.mass, cfg, b.acc, b.pot);

  RunningStats rel;
  RunningStats mean_a;
  for (std::size_t i = 0; i < n; ++i) mean_a.add(norm(ref_acc[i]));
  for (std::size_t i = 0; i < n; ++i) rel.add(norm(b.acc[i] - ref_acc[i]));
  return rel.rms() / mean_a.rms();
}

TEST(TreeForces, ErrorDecreasesWithTheta) {
  // Note: our theta bounds bmax/d (Warren-Salmon convention), which at equal
  // theta is ~2x looser than the classic cell-side/d criterion; theta = 0.3
  // here corresponds to the paper's production accuracy regime.
  const double e_loose = tree_rms_error(700, hot::Mac{.theta = 1.0});
  const double e_mid = tree_rms_error(700, hot::Mac{.theta = 0.6});
  const double e_tight = tree_rms_error(700, hot::Mac{.theta = 0.3});
  EXPECT_LT(e_mid, e_loose);
  EXPECT_LT(e_tight, e_mid);
  EXPECT_LT(e_mid, 2.5e-2);
  EXPECT_LT(e_tight, 1.2e-3);  // the paper's "better than 1e-3 RMS" regime
  // Quadrupole truncation error scales like theta^4: halving theta must gain
  // at least a factor ~8 (allowing constant-factor slack).
  EXPECT_LT(e_tight, e_mid / 8.0);
}

TEST(TreeForces, QuadrupoleBeatsMonopole) {
  hot::Mac mono{.theta = 0.4, .quadrupole = false};
  hot::Mac quad{.theta = 0.4, .quadrupole = true};
  EXPECT_LT(tree_rms_error(700, quad), 0.5 * tree_rms_error(700, mono));
}

TEST(TreeForces, SalmonWarrenMacMeetsAbsoluteBound) {
  const std::size_t n = 600;
  auto b = plummer_sphere(n, 41);
  const auto domain = fit_domain(b);
  std::vector<Vec3d> ref_acc(n);
  std::vector<double> ref_pot(n);
  direct_forces(b.pos, b.mass, 0.02, 1.0, ref_acc, ref_pot);

  for (double eps_abs : {1e-2, 1e-3, 1e-4}) {
    hot::Tree tree;
    tree.build(b.pos, b.mass, domain, {.bucket_size = 8});
    TreeForceConfig cfg{
        .mac = hot::Mac{.type = hot::MacType::SalmonWarren, .eps_abs = eps_abs},
        .softening = 0.02,
        .G = 1.0};
    b.clear_forces();
    tree_forces(tree, b.pos, b.mass, cfg, b.acc, b.pot);
    RunningStats err;
    for (std::size_t i = 0; i < n; ++i) err.add(norm(b.acc[i] - ref_acc[i]));
    // The bound is per accepted cell; the RMS total error stays within a
    // small multiple of eps_abs (errors add incoherently).
    EXPECT_LT(err.rms(), 30 * eps_abs) << "eps_abs=" << eps_abs;
  }
}

TEST(TreeForces, InteractionCountFarBelowNSquared) {
  const std::size_t n = 3000;
  auto b = plummer_sphere(n, 47);
  hot::Tree tree;
  tree.build(b.pos, b.mass, fit_domain(b));
  TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.6}, .softening = 0.02};
  b.clear_forces();
  const auto tally = tree_forces(tree, b.pos, b.mass, cfg, b.acc, b.pot);
  EXPECT_LT(tally.interactions(), static_cast<std::uint64_t>(n) * n / 4);
  EXPECT_GT(tally.interactions(), static_cast<std::uint64_t>(n));  // sanity
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool bits_equal(const Vec3d& a, const Vec3d& b) {
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) && bits_equal(a.z, b.z);
}

template <class T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

class ParallelTree : public ::testing::TestWithParam<int> {};

TEST_P(ParallelTree, MatchesSerialTreecode) {
  const int p = GetParam();
  const std::size_t n = 1200;
  auto all = plummer_sphere(n, 53);
  const auto domain = fit_domain(all);
  const TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.5}, .softening = 0.02};

  // Serial treecode reference at the same MAC (for the error budget) and
  // exact direct forces (for the absolute error).
  auto serial = all;
  hot::Tree tree;
  tree.build(serial.pos, serial.mass, domain, {.bucket_size = 16});
  serial.clear_forces();
  tree_forces(tree, serial.pos, serial.mass, cfg, serial.acc, serial.pot);

  std::vector<Vec3d> exact_acc(n);
  std::vector<double> exact_pot(n);
  direct_forces(all.pos, all.mass, 0.02, 1.0, exact_acc, exact_pot);
  RunningStats exact_mag, serial_err;
  for (std::size_t i = 0; i < n; ++i) exact_mag.add(norm(exact_acc[i]));
  for (std::size_t i = 0; i < n; ++i)
    serial_err.add(norm(serial.acc[i] - exact_acc[serial.id[i]]));
  const double serial_rel = serial_err.rms() / exact_mag.rms();

  std::vector<double> max_rel(1, 0.0);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n;
         i += static_cast<std::size_t>(p))
      local.append_from(all, i);

    parallel_tree_forces(r, local, domain, cfg);

    // Parallel result must match the *exact* force to treecode accuracy.
    RunningStats err;
    for (std::size_t i = 0; i < local.size(); ++i)
      err.add(norm(local.acc[i] - exact_acc[local.id[i]]));
    const double rel = err.rms() / exact_mag.rms();
    const double worst = r.allreduce(rel, parc::Max{});
    if (r.rank() == 0) max_rel[0] = worst;
  });
  // The LET import obeys the same MAC, so the parallel error must stay within
  // a small factor of the serial treecode error at this MAC (and bounded
  // absolutely).
  EXPECT_LT(max_rel[0], 4 * serial_rel + 1e-4);
  EXPECT_LT(max_rel[0], 5e-2);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelTree, ::testing::Values(1, 2, 4, 8));

TEST(ParallelTree, WorkWeightsAreRefreshed) {
  parc::Runtime::run(2, [](parc::Rank& r) {
    auto all = plummer_sphere(600, 61);
    const auto domain = fit_domain(all);
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size(); i += 2)
      local.append_from(all, i);
    parallel_tree_forces(r, local, domain,
                         TreeForceConfig{.mac = hot::Mac{.theta = 0.6}});
    // After a force computation every body carries a nonzero work estimate.
    for (double w : local.work) ASSERT_GT(w, 0.0);
  });
}

// parallel_tree_forces is its public steps in this order and nothing more:
// decompose, build, LET exchange, the local walk, then the import walk.
// perfbench's traced let_step rebuilds the step from these calls and
// requires the same bits, so fusing or reordering the two walks fails here.
class ParallelTreeSteps : public ::testing::TestWithParam<int> {};

TEST_P(ParallelTreeSteps, MatchPipelineBitForBit) {
  const int p = GetParam();
  auto all = plummer_sphere(1500, 59);
  const auto domain = fit_domain(all);
  const TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.5}, .softening = 0.02};
  parc::Runtime::run(p, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size();
         i += static_cast<std::size_t>(p))
      local.append_from(all, i);
    // A first call leaves per-body work weights, so the compared calls
    // redecompose by work as a stepping run does.
    parallel_tree_forces(r, local, domain, cfg);
    hot::Bodies steps = local;
    const ParallelForceResult res = parallel_tree_forces(r, local, domain, cfg);

    hot::decompose(r, steps, domain);
    hot::Tree tree;
    tree.build(steps.pos, steps.mass, domain);
    const auto boxes = r.allgather(hot::local_aabb(steps));
    const hot::LetImport import =
        hot::exchange_let(r, tree, steps.pos, steps.mass, boxes, cfg.mac);
    steps.clear_forces();
    const InteractionTally walk =
        tree_forces(tree, steps.pos, steps.mass, cfg, steps.acc, steps.pot, steps.work);
    const InteractionTally applied =
        apply_let_import(import, steps.pos, cfg, steps.acc, steps.pot, steps.work);

    EXPECT_EQ(steps.id, local.id);
    EXPECT_TRUE(bits_equal(steps.pos, local.pos));
    EXPECT_TRUE(bits_equal(steps.acc, local.acc));
    EXPECT_TRUE(bits_equal(steps.pot, local.pot));
    EXPECT_TRUE(bits_equal(steps.work, local.work));
    EXPECT_EQ(res.let_cells, import.cells.size());
    EXPECT_EQ(res.let_bodies, import.bodies.size());
    const auto same = [](const InteractionTally& a, const InteractionTally& b) {
      return a.body_body == b.body_body && a.body_cell == b.body_cell &&
             a.mac_tests == b.mac_tests && a.cells_opened == b.cells_opened;
    };
    EXPECT_TRUE(same(res.let_tally, applied));
    EXPECT_TRUE(same(res.tally, walk + applied));
    EXPECT_GT(applied.interactions(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelTreeSteps, ::testing::Values(2, 4));

TEST(Integrator, TwoBodyCircularOrbitClosesAfterOnePeriod) {
  auto b = two_body_circular(1.0, 1.0, 1.0);
  const double mtot = 2.0;
  const double omega = std::sqrt(mtot);           // d = 1
  const double period = 2 * std::numbers::pi / omega;
  const int steps = 2000;
  const double dt = period / steps;
  const Vec3d x0 = b.pos[0];

  auto forces = [&](hot::Bodies& bb) {
    bb.clear_forces();
    direct_forces(bb.pos, bb.mass, 0.0, 1.0, bb.acc, bb.pot);
  };
  forces(b);
  for (int s = 0; s < steps; ++s) {
    kick(b, dt / 2);
    drift(b, dt);
    forces(b);
    kick(b, dt / 2);
  }
  EXPECT_NEAR(norm(b.pos[0] - x0), 0.0, 2e-3);
}

TEST(Integrator, LeapfrogConservesEnergyOverPlummerEvolution) {
  auto b = plummer_sphere(300, 71);
  const double eps = 0.05;
  auto forces = [&](hot::Bodies& bb) {
    bb.clear_forces();
    direct_forces(bb.pos, bb.mass, eps, 1.0, bb.acc, bb.pot);
  };
  forces(b);
  const double e0 = kinetic_energy(b) + potential_energy(b);
  const Vec3d p0 = total_momentum(b);
  const double dt = 0.005;
  for (int s = 0; s < 200; ++s) {
    kick(b, dt / 2);
    drift(b, dt);
    forces(b);
    kick(b, dt / 2);
  }
  const double e1 = kinetic_energy(b) + potential_energy(b);
  EXPECT_NEAR((e1 - e0) / std::abs(e0), 0.0, 5e-3);
  EXPECT_NEAR(norm(total_momentum(b) - p0), 0.0, 1e-10);
}

TEST(Integrator, PlummerModelIsNearVirialEquilibrium) {
  auto b = plummer_sphere(4000, 83);
  b.clear_forces();
  direct_forces(b.pos, b.mass, 0.0, 1.0, b.acc, b.pot);
  const double ke = kinetic_energy(b);
  const double pe = potential_energy(b);
  // Virial theorem: 2KE + PE = 0 (finite-N and clipping tolerance).
  EXPECT_NEAR(2 * ke / std::abs(pe), 1.0, 0.1);
}

TEST(Models, TwoBodyCircularHasZeroNetMomentum) {
  auto b = two_body_circular(2.0, 3.0, 1.5);
  EXPECT_NEAR(norm(total_momentum(b)), 0.0, 1e-12);
}

// ---- arbitrary-sink evaluation (the serving layer's query primitive) -------

// Query points that do not coincide with any source body.
std::vector<Vec3d> query_points(std::size_t m, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Vec3d> pts(m);
  for (auto& p : pts) p = rng.in_sphere(1.4);
  return pts;
}

// The reference semantics of evaluate_at: build a tree over the sources plus
// massless phantom bodies at `points` (all inside `domain`), run tree_forces
// over the combined set and copy the phantoms' outputs into `acc`/`pot`. The
// returned tally is the combined run's (phantom rows do real traversal work).
InteractionTally evaluate_with_phantoms(std::span<const Vec3d> src_pos,
                                        std::span<const double> src_mass,
                                        const morton::Domain& domain,
                                        hot::Tree::Config tree_cfg,
                                        const TreeForceConfig& cfg,
                                        std::span<const Vec3d> points,
                                        std::span<Vec3d> acc, std::span<double> pot) {
  const std::size_t n = src_pos.size(), m = points.size();
  std::vector<Vec3d> all_pos(src_pos.begin(), src_pos.end());
  all_pos.insert(all_pos.end(), points.begin(), points.end());
  std::vector<double> all_mass(src_mass.begin(), src_mass.end());
  all_mass.resize(n + m, 0.0);  // phantoms are massless

  hot::Tree tree;
  tree.build(all_pos, all_mass, domain, tree_cfg);
  std::vector<Vec3d> all_acc(n + m);
  std::vector<double> all_pot(n + m, 0.0);
  const InteractionTally tally =
      tree_forces(tree, all_pos, all_mass, cfg, all_acc, all_pot);
  for (std::size_t i = 0; i < m; ++i) {
    acc[i] = all_acc[n + i];
    pot[i] = all_pot[n + i];
  }
  return tally;
}

TEST(EvaluateAt, WithPhantomsBitIdenticalToManualInsertion) {
  // The factored reference API must never drift from what literally
  // appending massless bodies to the source set produces.
  const std::size_t n = 500, m = 48;
  auto b = plummer_sphere(n, 97);
  const std::vector<Vec3d> pts = query_points(m, 1234);

  std::vector<Vec3d> combined_pos = b.pos;
  combined_pos.insert(combined_pos.end(), pts.begin(), pts.end());
  std::vector<double> combined_mass = b.mass;
  combined_mass.insert(combined_mass.end(), m, 0.0);
  const morton::Domain domain =
      morton::bounding_domain(combined_pos.data(), combined_pos.size());
  const hot::Tree::Config tree_cfg{.bucket_size = 16};
  const TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.6}, .softening = 0.02};

  // Manual phantom insertion: combined tree, ordinary group-walk forces.
  hot::Tree tree;
  tree.build(combined_pos, combined_mass, domain, tree_cfg);
  std::vector<Vec3d> manual_acc(n + m, Vec3d{});
  std::vector<double> manual_pot(n + m, 0.0);
  const InteractionTally manual_tally =
      tree_forces(tree, combined_pos, combined_mass, cfg, manual_acc, manual_pot);

  std::vector<Vec3d> acc(m);
  std::vector<double> pot(m);
  const InteractionTally tally = evaluate_with_phantoms(
      b.pos, b.mass, domain, tree_cfg, cfg, pts, acc, pot);

  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(bits_equal(acc[i], manual_acc[n + i])) << i;
    EXPECT_TRUE(bits_equal(pot[i], manual_pot[n + i])) << i;
  }
  EXPECT_EQ(tally.body_body, manual_tally.body_body);
  EXPECT_EQ(tally.body_cell, manual_tally.body_cell);
  EXPECT_EQ(tally.cells_opened, manual_tally.cells_opened);
  EXPECT_EQ(tally.mac_tests, manual_tally.mac_tests);
}

TEST(EvaluateAt, PointWalkMatchesNearExactReferenceWithinMacTolerance) {
  // evaluate_at() walks the live tree per point; hold it to the near-exact
  // answer (theta→0 opens every cell, so the phantom run degenerates to
  // softened direct summation through the repo's own kernels).
  const std::size_t n = 800, m = 40;
  auto b = plummer_sphere(n, 101);
  const std::vector<Vec3d> pts = query_points(m, 5678);

  std::vector<Vec3d> combined_pos = b.pos;
  combined_pos.insert(combined_pos.end(), pts.begin(), pts.end());
  const morton::Domain domain =
      morton::bounding_domain(combined_pos.data(), combined_pos.size());
  const hot::Tree::Config tree_cfg{.bucket_size = 16};

  std::vector<Vec3d> exact_acc(m);
  std::vector<double> exact_pot(m);
  evaluate_with_phantoms(b.pos, b.mass, domain, tree_cfg,
                         TreeForceConfig{.mac = hot::Mac{.theta = 1e-9},
                                         .softening = 0.02},
                         pts, exact_acc, exact_pot);

  hot::Tree tree;
  tree.build(b.pos, b.mass, domain, tree_cfg);
  std::vector<Vec3d> acc(m);
  std::vector<double> pot(m);
  evaluate_at(tree, b.pos, b.mass,
              TreeForceConfig{.mac = hot::Mac{.theta = 0.5}, .softening = 0.02},
              pts, acc, pot);

  double err2 = 0, ref2 = 0;
  for (std::size_t i = 0; i < m; ++i) {
    err2 += norm2(acc[i] - exact_acc[i]);
    ref2 += norm2(exact_acc[i]);
    EXPECT_NEAR(pot[i], exact_pot[i], 2e-3 * std::abs(exact_pot[i]) + 1e-12) << i;
  }
  EXPECT_LT(std::sqrt(err2 / ref2), 1e-2);
}

TEST(EvaluateAt, OverwritesStaleOutputs) {
  // Unlike tree_forces, the query evaluators overwrite: stale garbage in the
  // output arrays must not leak into (or perturb) the results.
  const std::size_t n = 300, m = 16;
  auto b = plummer_sphere(n, 103);
  const std::vector<Vec3d> pts = query_points(m, 42);
  const morton::Domain domain = fit_domain(b, 0.5);
  hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});
  const TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.6}, .softening = 0.02};

  std::vector<Vec3d> clean_acc(m, Vec3d{});
  std::vector<double> clean_pot(m, 0.0);
  evaluate_at(tree, b.pos, b.mass, cfg, pts, clean_acc, clean_pot);

  std::vector<Vec3d> dirty_acc(m, Vec3d{1e300, -1e300, 1e300});
  std::vector<double> dirty_pot(m, 1e300);
  evaluate_at(tree, b.pos, b.mass, cfg, pts, dirty_acc, dirty_pot);

  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(bits_equal(clean_acc[i], dirty_acc[i])) << i;
    EXPECT_TRUE(bits_equal(clean_pot[i], dirty_pot[i])) << i;
  }
}

}  // namespace
}  // namespace hotlib::gravity
