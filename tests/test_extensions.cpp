// Tests for Hilbert keys (bench_keys) and the two-point correlation function
// (the clustering measure behind Figures 1-2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "cosmo/correlate.hpp"
#include "gravity/models.hpp"
#include "morton/hilbert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hotlib {
namespace {

// ---- Hilbert keys ----------------------------------------------------------

TEST(Hilbert, RoundTripBijection) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next() % morton::kCoordRange);
    const auto y = static_cast<std::uint32_t>(rng.next() % morton::kCoordRange);
    const auto z = static_cast<std::uint32_t>(rng.next() % morton::kCoordRange);
    const morton::Key k = morton::hilbert_from_coords(x, y, z);
    const morton::Coords c = morton::coords_from_hilbert(k);
    ASSERT_EQ(c.x, x);
    ASSERT_EQ(c.y, y);
    ASSERT_EQ(c.z, z);
    ASSERT_EQ(morton::level(k), morton::kMaxLevel);
  }
}

TEST(Hilbert, ConsecutiveKeysAreFaceAdjacent) {
  // The defining Hilbert property: successive curve positions differ by
  // exactly one lattice step in exactly one axis. Walk a stretch of the
  // curve by inverting consecutive indices.
  // Build key payloads directly: index -> transpose -> axes.
  for (std::uint64_t start : {0ULL, 12345ULL, 999999ULL}) {
    morton::Coords prev{};
    bool have_prev = false;
    for (std::uint64_t idx = start; idx < start + 200; ++idx) {
      const morton::Key k = (morton::Key{1} << 63) | idx;
      const morton::Coords c = morton::coords_from_hilbert(k);
      if (have_prev) {
        const long dx = std::labs(static_cast<long>(c.x) - static_cast<long>(prev.x));
        const long dy = std::labs(static_cast<long>(c.y) - static_cast<long>(prev.y));
        const long dz = std::labs(static_cast<long>(c.z) - static_cast<long>(prev.z));
        ASSERT_EQ(dx + dy + dz, 1) << "idx=" << idx;
      }
      prev = c;
      have_prev = true;
    }
  }
}

TEST(Hilbert, BetterLocalityThanMorton) {
  // Mean jump distance between key-order neighbours of a random point set:
  // Hilbert must beat Morton (it is why later codes switched).
  Xoshiro256ss rng(13);
  const morton::Domain d{};
  std::vector<Vec3d> pts(4000);
  for (auto& p : pts) p = rng.in_cube();

  auto mean_jump = [&](auto key_fn) {
    std::vector<std::pair<morton::Key, std::size_t>> keyed;
    keyed.reserve(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) keyed.push_back({key_fn(pts[i], d), i});
    std::sort(keyed.begin(), keyed.end());
    RunningStats jump;
    for (std::size_t i = 1; i < keyed.size(); ++i)
      jump.add(norm(pts[keyed[i].second] - pts[keyed[i - 1].second]));
    return jump.mean();
  };
  const double morton_jump = mean_jump(
      [](const Vec3d& p, const morton::Domain& dd) { return morton::key_from_position(p, dd); });
  const double hilbert_jump = mean_jump([](const Vec3d& p, const morton::Domain& dd) {
    return morton::hilbert_from_position(p, dd);
  });
  EXPECT_LT(hilbert_jump, morton_jump);
}

// ---- correlation function ----------------------------------------------------

TEST(Correlation, UniformFieldHasZeroXi) {
  auto b = gravity::uniform_cube(8000, 31);
  hot::Tree tree;
  tree.build(b.pos, b.mass, morton::Domain{});
  const auto xi = cosmo::two_point_correlation(b, tree, 1.0, 0.02, 0.15, 6);
  for (const auto& bin : xi) {
    EXPECT_NEAR(bin.xi, 0.0, 0.25) << "bin " << bin.r_lo;
    EXPECT_GT(bin.pairs, 0u);
  }
}

TEST(Correlation, ClusteredFieldHasPositiveXiAtSmallR) {
  // Clumps of points: strong excess at separations below the clump size.
  Xoshiro256ss rng(41);
  hot::Bodies b;
  for (int c = 0; c < 60; ++c) {
    const Vec3d center = rng.in_cube() * 0.8 + Vec3d::all(0.1);
    for (int i = 0; i < 60; ++i)
      b.push_back(center + rng.in_sphere(0.02), {}, 1.0, b.size());
  }
  hot::Tree tree;
  tree.build(b.pos, b.mass, morton::Domain{});
  const auto xi = cosmo::two_point_correlation(b, tree, 1.0, 0.005, 0.3, 8);
  EXPECT_GT(xi.front().xi, 10.0);             // strong clustering at small r
  EXPECT_LT(xi.back().xi, xi.front().xi / 5);  // decays with separation
}

}  // namespace
}  // namespace hotlib
