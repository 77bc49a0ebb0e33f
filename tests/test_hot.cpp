// Tests for the hashed oct-tree core: tree construction invariants and
// key lookup, multipole moments, MACs, traversal interaction lists, the
// weighted domain decomposition and the LET exchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gravity/models.hpp"
#include "hot/hot.hpp"
#include "hot/spatial.hpp"
#include "parc/parc.hpp"
#include "util/rng.hpp"

namespace hotlib::hot {
namespace {

using gravity::fit_domain;
using gravity::plummer_sphere;
using gravity::uniform_cube;

class TreeBuild : public ::testing::TestWithParam<int> {};

TEST_P(TreeBuild, PartitionAndMassInvariants) {
  const int bucket = GetParam();
  auto b = plummer_sphere(2000, 31);
  const auto domain = fit_domain(b);
  Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = bucket});

  // Root covers every body; total mass conserved.
  EXPECT_EQ(tree.root().body_count, b.size());
  EXPECT_NEAR(tree.root().mass, std::accumulate(b.mass.begin(), b.mass.end(), 0.0),
              1e-12);

  // Every internal cell's children partition its body range exactly.
  for (const Cell& c : tree.cells()) {
    if (c.is_leaf()) {
      EXPECT_LE(c.body_count, static_cast<std::uint32_t>(bucket));
      continue;
    }
    std::uint32_t covered = 0;
    double child_mass = 0;
    for (std::uint32_t k = 0; k < c.nchildren; ++k) {
      const Cell& ch = tree.cells()[c.first_child + k];
      EXPECT_EQ(morton::parent(ch.key), c.key);
      EXPECT_EQ(ch.body_begin, c.body_begin + covered);
      covered += ch.body_count;
      child_mass += ch.mass;
    }
    EXPECT_EQ(covered, c.body_count);
    EXPECT_NEAR(child_mass, c.mass, 1e-12 * std::max(1.0, c.mass));
  }

  // The order() permutation is a bijection.
  std::vector<bool> seen(b.size(), false);
  for (std::uint32_t i : tree.order()) {
    ASSERT_LT(i, b.size());
    ASSERT_FALSE(seen[i]);
    seen[i] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(BucketSizes, TreeBuild, ::testing::Values(1, 4, 16, 64));

TEST(Tree, HashFindsEveryCellAndOnlyThose) {
  auto b = uniform_cube(1500, 77);
  const auto domain = fit_domain(b);
  Tree tree;
  tree.build(b.pos, b.mass, domain);
  for (std::size_t i = 0; i < tree.cells().size(); ++i) {
    const Cell* c = tree.find(tree.cells()[i].key);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->key, tree.cells()[i].key);
  }
  // A key that cannot exist (child of a leaf in empty space) misses.
  EXPECT_EQ(tree.find(morton::child(morton::kRootKey, 0) |
                      (morton::Key{1} << 40)),
            nullptr);
}

TEST(Tree, MomentsMatchBruteForce) {
  auto b = plummer_sphere(500, 5);
  const auto domain = fit_domain(b);
  Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 8});

  // For every cell, recompute mass/com/quad/b2 directly from its bodies.
  for (const Cell& c : tree.cells()) {
    if (c.body_count == 0) continue;
    RawMoments raw;
    for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t) {
      const std::uint32_t i = tree.order()[t];
      raw.accumulate(b.pos[i], b.mass[i]);
    }
    Cell ref;
    finalize_moments(raw, 0.0, ref);
    EXPECT_NEAR(ref.mass, c.mass, 1e-12);
    EXPECT_NEAR(ref.com.x, c.com.x, 1e-9);
    EXPECT_NEAR(ref.com.y, c.com.y, 1e-9);
    EXPECT_NEAR(ref.com.z, c.com.z, 1e-9);
    for (int q = 0; q < 6; ++q)
      EXPECT_NEAR(ref.quad[static_cast<std::size_t>(q)],
                  c.quad[static_cast<std::size_t>(q)], 1e-7 * std::max(1.0, c.b2));
    EXPECT_NEAR(ref.b2, c.b2, 1e-9 * std::max(1.0, c.b2));
    // bmax upper-bounds the true enclosing radius.
    double true_bmax = 0;
    for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t) {
      const std::uint32_t i = tree.order()[t];
      true_bmax = std::max(true_bmax, norm(b.pos[i] - c.com));
    }
    EXPECT_GE(c.bmax + 1e-12, true_bmax);
  }
}

TEST(Tree, QuadrupoleIsTraceFree) {
  auto b = uniform_cube(800, 9);
  Tree tree;
  tree.build(b.pos, b.mass, fit_domain(b));
  for (const Cell& c : tree.cells()) {
    if (c.body_count == 0) continue;
    EXPECT_NEAR(c.quad[0] + c.quad[3] + c.quad[5], 0.0, 1e-9 * std::max(1.0, c.b2));
  }
}

TEST(Tree, EmptyAndSingleton) {
  Tree tree;
  tree.build({}, {}, morton::Domain{});
  EXPECT_EQ(tree.root().body_count, 0u);

  const Vec3d p{0.5, 0.5, 0.5};
  const double m = 2.0;
  tree.build(std::span<const Vec3d>(&p, 1), std::span<const double>(&m, 1),
             morton::Domain{});
  EXPECT_EQ(tree.root().body_count, 1u);
  EXPECT_DOUBLE_EQ(tree.root().mass, 2.0);
  EXPECT_DOUBLE_EQ(tree.root().bmax, 0.0);
}

TEST(Tree, CoincidentBodiesDoNotRecurseForever) {
  // 100 bodies at the same point exceed any bucket: depth is capped.
  std::vector<Vec3d> pos(100, Vec3d{0.25, 0.25, 0.25});
  std::vector<double> mass(100, 0.01);
  Tree tree;
  tree.build(pos, mass, morton::Domain{}, {.bucket_size = 8});
  EXPECT_LE(tree.max_depth(), morton::kMaxLevel);
  EXPECT_EQ(tree.root().body_count, 100u);
}

TEST(Tree, FindWithinReturnsAllTrueNeighbors) {
  auto b = uniform_cube(2000, 13);
  const auto domain = fit_domain(b);
  Tree tree;
  tree.build(b.pos, b.mass, domain);
  Xoshiro256ss rng(4);
  std::vector<std::uint32_t> cand;
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3d c = rng.in_cube();
    const double radius = 0.15;
    tree.find_within(c, radius, cand);
    std::vector<bool> in_cand(b.size(), false);
    for (std::uint32_t i : cand) in_cand[i] = true;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (norm(b.pos[i] - c) <= radius) {
        ASSERT_TRUE(in_cand[i]) << "missed neighbor " << i;
      }
    }
  }
}

TEST(Mac, BarnesHutCriticalRadiusScalesWithTheta) {
  Cell c;
  c.bmax = 1.0;
  c.b2 = 0.5;
  Mac tight{.type = MacType::BarnesHut, .theta = 0.3};
  Mac loose{.type = MacType::BarnesHut, .theta = 0.9};
  EXPECT_GT(tight.r_crit(c), loose.r_crit(c));
  EXPECT_TRUE(loose.accept(c, 2.0));
  EXPECT_FALSE(tight.accept(c, 2.0));
}

TEST(Mac, SalmonWarrenTightensWithEps) {
  Cell c;
  c.bmax = 0.5;
  c.b2 = 0.2;
  Mac coarse{.type = MacType::SalmonWarren, .eps_abs = 1e-2};
  Mac fine{.type = MacType::SalmonWarren, .eps_abs = 1e-6};
  EXPECT_GT(fine.r_crit(c), coarse.r_crit(c));
}

TEST(Mac, PointMassAlwaysAcceptable) {
  Cell c;  // single particle: b2 == 0, bmax == 0
  Mac m{.type = MacType::SalmonWarren, .eps_abs = 1e-9};
  EXPECT_TRUE(m.accept(c, 1e-3));
}

TEST(Traverse, ListsCoverEveryBodyExactlyOnce) {
  // For any sink group, every body of the system must appear exactly once:
  // either directly on the body list or inside exactly one accepted cell.
  auto b = plummer_sphere(800, 21);
  const auto domain = fit_domain(b);
  Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});
  const Mac mac{.type = MacType::BarnesHut, .theta = 0.7};

  InteractionLists lists;
  InteractionTally tally;
  for (std::uint32_t li : leaf_indices(tree)) {
    build_interaction_lists(tree, li, mac, lists, tally);
    std::vector<int> covered(b.size(), 0);
    for (std::uint32_t i : lists.bodies) covered[i] += 1;
    for (std::uint32_t ci : lists.cells) {
      const Cell& c = tree.cells()[ci];
      for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t)
        covered[tree.order()[t]] += 1;
    }
    for (std::size_t i = 0; i < b.size(); ++i)
      ASSERT_EQ(covered[i], 1) << "body " << i << " covered " << covered[i] << " times";
    // Mass on the lists equals total mass.
    double mass = 0;
    for (std::uint32_t i : lists.bodies) mass += b.mass[i];
    for (std::uint32_t ci : lists.cells) mass += tree.cells()[ci].mass;
    ASSERT_NEAR(mass, tree.root().mass, 1e-9);
  }
  EXPECT_GT(tally.mac_tests, 0u);
}

TEST(Traverse, TighterThetaOpensMoreCells) {
  auto b = plummer_sphere(1500, 23);
  Tree tree;
  tree.build(b.pos, b.mass, fit_domain(b));
  InteractionLists lists;
  InteractionTally t_tight, t_loose;
  std::size_t direct_tight = 0, direct_loose = 0;
  for (std::uint32_t li : leaf_indices(tree)) {
    build_interaction_lists(tree, li, Mac{.theta = 0.3}, lists, t_tight);
    direct_tight += lists.bodies.size();
    build_interaction_lists(tree, li, Mac{.theta = 1.0}, lists, t_loose);
    direct_loose += lists.bodies.size();
  }
  EXPECT_GT(t_tight.cells_opened, t_loose.cells_opened);
  EXPECT_GT(direct_tight, direct_loose);
}

// ---- parallel pieces -------------------------------------------------------

class Decompose : public ::testing::TestWithParam<int> {};

TEST_P(Decompose, PreservesBodiesAndBalancesWork) {
  const int p = GetParam();
  const std::size_t n_total = 4000;
  auto all = plummer_sphere(n_total, 55);
  const auto domain = fit_domain(all);

  std::vector<double> imbalance(1);
  std::vector<std::vector<std::uint64_t>> per_rank_ids(static_cast<std::size_t>(p));
  parc::Runtime::run(p, [&](parc::Rank& r) {
    // Deal bodies round-robin to ranks as the "previous" distribution.
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n_total;
         i += static_cast<std::size_t>(p))
      local.append_from(all, i);

    DecomposeStats stats;
    const auto ranges = decompose(r, local, domain, &stats);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(p));

    // Every local body's key is inside this rank's range.
    for (std::size_t i = 0; i < local.size(); ++i) {
      const auto k = morton::key_from_position(local.pos[i], domain);
      ASSERT_TRUE(ranges[static_cast<std::size_t>(r.rank())].contains(k));
    }
    // Keys sorted after exchange.
    for (std::size_t i = 1; i < local.size(); ++i) {
      ASSERT_LE(morton::key_from_position(local.pos[i - 1], domain),
                morton::key_from_position(local.pos[i], domain));
    }
    per_rank_ids[static_cast<std::size_t>(r.rank())] = local.id;
    if (r.rank() == 0) imbalance[0] = stats.imbalance();
  });

  // No body lost or duplicated.
  std::vector<bool> seen(n_total, false);
  std::size_t count = 0;
  for (const auto& ids : per_rank_ids)
    for (std::uint64_t id : ids) {
      ASSERT_LT(id, n_total);
      ASSERT_FALSE(seen[id]);
      seen[id] = true;
      ++count;
    }
  EXPECT_EQ(count, n_total);
  // Equal unit weights: balance within 25% of perfect for small P.
  EXPECT_LT(imbalance[0], 1.25);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Decompose, ::testing::Values(1, 2, 4, 8));

TEST(Decompose, RespectsWorkWeights) {
  // Put all the work weight on one half of the system; the heavy half must
  // spread over more ranks than the light half.
  const int p = 4;
  auto all = uniform_cube(2000, 3);
  const auto domain = fit_domain(all);
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  parc::Runtime::run(p, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size();
         i += static_cast<std::size_t>(p)) {
      local.append_from(all, i);
      local.work.back() = all.pos[i].x < 0.5 ? 100.0 : 1.0;
    }
    decompose(r, local, domain);
    counts[static_cast<std::size_t>(r.rank())] = local.size();
  });
  // The last rank (owning the high-key, light half) must hold far more
  // bodies than the first rank (heavy half).
  EXPECT_GT(counts[3], 2 * counts[0]);
}

TEST(Aabb, DistanceInsideAndOutside) {
  Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(box.distance({0.5, 0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(box.distance({2.0, 0.5, 0.5}), 1.0);
  EXPECT_NEAR(box.distance({2.0, 2.0, 0.5}), std::sqrt(2.0), 1e-12);
}

TEST(Let, ImportedMassAccountsForWholeRemoteSystem) {
  // With 2 ranks, the cells+bodies imported from the other rank must sum to
  // exactly the other rank's total mass.
  const int p = 2;
  auto all = plummer_sphere(1000, 91);
  const auto domain = fit_domain(all);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size();
         i += static_cast<std::size_t>(p))
      local.append_from(all, i);
    decompose(r, local, domain);

    Tree tree;
    tree.build(local.pos, local.mass, domain);
    const double my_mass = tree.root().body_count > 0 ? tree.root().mass : 0.0;
    const auto boxes = r.allgather(local_aabb(local));
    const Mac mac{.type = MacType::BarnesHut, .theta = 0.6};
    const LetImport import =
        exchange_let(r, tree, local.pos, local.mass, boxes, mac);

    double imported = 0;
    for (const auto& c : import.cells) imported += c.mass;
    for (const auto& s : import.bodies) imported += s.mass;
    const double total = r.allreduce(my_mass, parc::Sum{});
    EXPECT_NEAR(imported, total - my_mass, 1e-9);
  });
}

// ---- spatial queries (serving-layer region + kNN primitives) ---------------

TEST(Spatial, CollectInBoxMatchesBruteForceOverRandomBoxes) {
  auto b = plummer_sphere(1500, 113);
  const auto domain = fit_domain(b);
  Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 8});

  // Position of each original body in tree (Morton) order.
  std::vector<std::uint32_t> tree_pos(b.size());
  for (std::uint32_t t = 0; t < tree.order().size(); ++t) tree_pos[tree.order()[t]] = t;

  Xoshiro256ss rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3d c = rng.in_sphere(0.9);
    const Vec3d h{rng.uniform(0.02, 0.6), rng.uniform(0.02, 0.6),
                  rng.uniform(0.02, 0.6)};
    const Aabb box{c - h, c + h};
    std::vector<std::uint32_t> got;
    collect_in_box(tree, b.pos, box, got);
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < b.size(); ++i)
      if (box.contains(b.pos[i])) want.push_back(i);
    std::vector<std::uint32_t> got_sorted = got;
    std::sort(got_sorted.begin(), got_sorted.end());
    EXPECT_EQ(got_sorted, want) << "trial " << trial;
    // The documented order: tree positions strictly ascending.
    for (std::size_t k = 1; k < got.size(); ++k)
      ASSERT_LT(tree_pos[got[k - 1]], tree_pos[got[k]]) << "trial " << trial << " slot " << k;
    // Pure function of (tree, box): a repeat call returns the same indices
    // in the same (Morton) order, and `out` is cleared first.
    std::vector<std::uint32_t> again{9999999};
    collect_in_box(tree, b.pos, box, again);
    EXPECT_EQ(again, got);
  }

  // A box enclosing the whole domain returns every body exactly once.
  std::vector<std::uint32_t> all;
  collect_in_box(tree, b.pos, Aabb{{-99, -99, -99}, {99, 99, 99}}, all);
  EXPECT_EQ(all.size(), b.size());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.end(), std::adjacent_find(all.begin(), all.end()));

  // An empty box returns nothing.
  std::vector<std::uint32_t> none;
  collect_in_box(tree, b.pos, Aabb{{50, 50, 50}, {51, 51, 51}}, none);
  EXPECT_TRUE(none.empty());
}

TEST(Spatial, KnnMatchesBruteForceAcrossK) {
  const std::size_t n = 900;
  auto b = plummer_sphere(n, 127);
  Tree tree;
  tree.build(b.pos, b.mass, fit_domain(b), {.bucket_size = 8});

  Xoshiro256ss rng(31);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{64}, n,
                              n + 50}) {
    const Vec3d q = rng.in_sphere(1.1);
    std::vector<Neighbor> got;
    knn(tree, b.pos, q, k, got);

    std::vector<std::pair<double, std::uint32_t>> want;
    for (std::uint32_t i = 0; i < n; ++i) want.emplace_back(norm2(b.pos[i] - q), i);
    std::sort(want.begin(), want.end());
    const std::size_t expect = std::min(k, n);  // k > n: every body, no more
    ASSERT_EQ(got.size(), expect) << "k=" << k;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(got[i].index, want[i].second) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ(got[i].dist2, want[i].first) << "k=" << k << " i=" << i;
    }
  }

  // Exact-tie determinism: four bodies at the same distance from the query,
  // k=2 must keep the two lowest original indices (tie-break on index).
  std::vector<Vec3d> pos{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}};
  std::vector<double> mass(4, 1.0);
  Tree tied;
  tied.build(pos, mass, morton::bounding_domain(pos.data(), pos.size(), 0.1),
             {.bucket_size = 1});
  std::vector<Neighbor> two;
  knn(tied, pos, {0, 0, 0}, 2, two);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].index, 0u);
  EXPECT_EQ(two[1].index, 1u);
  EXPECT_DOUBLE_EQ(two[0].dist2, two[1].dist2);
}

}  // namespace
}  // namespace hotlib::hot
