// Tests for the batched SoA interaction kernels (gravity/batch.hpp):
// differential checks of the scalar batch path against the per-pair kernels
// (bit-identical by construction), the AVX2 path against the scalar path
// (2 ulp — only accumulation order differs), self-slot handling including
// coincident unsoftened sinks, flop-tally exactness across paths, and the
// one-pass list gathers against the incremental add_body/add_cell build.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gravity/batch.hpp"
#include "gravity/direct.hpp"
#include "gravity/evaluate.hpp"
#include "gravity/evaluator.hpp"
#include "gravity/kernels.hpp"
#include "gravity/models.hpp"
#include "util/rng.hpp"

namespace hotlib::gravity {
namespace {

// Restores the dispatch default when a test returns.
struct PathGuard {
  ~PathGuard() {
    force_batch_path(batch_avx2_available() ? BatchPath::kAvx2
                                            : BatchPath::kScalar);
  }
};

struct Cloud {
  std::vector<Vec3d> pos;
  std::vector<double> mass;
};

Cloud random_cloud(std::size_t n, std::uint64_t seed) {
  Cloud c;
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    c.pos.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                     rng.uniform(0.0, 1.0)});
    c.mass.push_back(rng.uniform(0.1, 2.0));
  }
  return c;
}

InteractionBatch body_batch(const Cloud& c) {
  InteractionBatch b;
  b.reserve_bodies(c.pos.size());
  for (std::size_t j = 0; j < c.pos.size(); ++j) b.add_body(c.pos[j], c.mass[j]);
  return b;
}

// Odd count exercises both the 4-wide blocks and the remainder tail.
constexpr std::size_t kN = 203;

TEST(Batch, ScalarPpBitIdenticalToPerPair) {
  PathGuard guard;
  force_batch_path(BatchPath::kScalar);
  const Cloud c = random_cloud(kN, 7);
  const InteractionBatch batch = body_batch(c);
  const double eps2 = 0.01;
  for (std::size_t i : {std::size_t{0}, std::size_t{3}, kN / 2, kN - 1}) {
    Vec3d a_ref{};
    double p_ref = 0;
    for (std::size_t j = 0; j < kN; ++j) {
      if (j == i) continue;
      pp_accumulate(c.pos[i], c.pos[j], c.mass[j], eps2, a_ref, p_ref);
    }
    Vec3d a{};
    double p = 0;
    batch_pp(batch, c.pos[i], eps2, i, a, p);
    EXPECT_EQ(std::memcmp(&a, &a_ref, sizeof a), 0);
    EXPECT_EQ(p, p_ref);
  }
}

TEST(Batch, ScalarPcBitIdenticalToPerPair) {
  PathGuard guard;
  force_batch_path(BatchPath::kScalar);
  Xoshiro256ss rng(11);
  for (bool use_quad : {false, true}) {
    InteractionBatch batch;
    batch.use_quad = use_quad;
    std::vector<Vec3d> com;
    std::vector<double> mass;
    std::vector<std::array<double, 6>> quads;
    for (std::size_t j = 0; j < 57; ++j) {
      com.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(-1.0, 1.0)});
      mass.push_back(rng.uniform(0.5, 5.0));
      std::array<double, 6> q{};
      for (double& v : q) v = rng.uniform(-0.1, 0.1);
      quads.push_back(q);
      batch.add_cell(com.back(), mass.back(), q);
    }
    const Vec3d xi{2.5, -2.0, 3.0};
    const double eps2 = 0.0;
    Vec3d a_ref{};
    double p_ref = 0;
    for (std::size_t j = 0; j < com.size(); ++j)
      pc_accumulate(xi, com[j], mass[j], quads[j], use_quad, eps2, a_ref, p_ref);
    Vec3d a{};
    double p = 0;
    batch_pc(batch, xi, eps2, a, p);
    EXPECT_EQ(std::memcmp(&a, &a_ref, sizeof a), 0) << "use_quad=" << use_quad;
    EXPECT_EQ(p, p_ref) << "use_quad=" << use_quad;
  }
}

TEST(Batch, ScalarBiotSavartBitIdenticalToPerPair) {
  PathGuard guard;
  force_batch_path(BatchPath::kScalar);
  Xoshiro256ss rng(13);
  std::vector<Vec3d> pos, alpha;
  for (std::size_t j = 0; j < kN; ++j) {
    pos.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                   rng.uniform(0.0, 1.0)});
    alpha.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(-1.0, 1.0)});
  }
  BiotSavartBatch batch;
  batch.resize(kN);
  for (std::size_t j = 0; j < kN; ++j) batch.set(j, pos[j], alpha[j]);
  const Vec3d xi{0.4, 0.5, 0.6};
  const Vec3d ai{0.3, -0.7, 0.2};
  const double sigma2 = 0.01;
  Vec3d u_ref{}, da_ref{};
  for (std::size_t j = 0; j < kN; ++j)
    biot_savart_accumulate(xi, pos[j], alpha[j], sigma2, u_ref, &ai, &da_ref);
  Vec3d u{}, da{};
  batch_biot_savart(batch, xi, ai, sigma2, u, da);
  EXPECT_EQ(std::memcmp(&u, &u_ref, sizeof u), 0);
  EXPECT_EQ(std::memcmp(&da, &da_ref, sizeof da), 0);
}

// |a - b| within k ulps of the larger magnitude.
::testing::AssertionResult WithinUlps(double a, double b, int k) {
  const double scale = std::max(std::abs(a), std::abs(b));
  const double ulp = scale > 0 ? (std::nextafter(scale, 1e308) - scale) : 0.0;
  if (std::abs(a - b) <= k * ulp) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differs by " << std::abs(a - b) << " > " << k
         << " ulp (" << k * ulp << ")";
}

// Scalar simulation of the AVX2 accumulation schedule: four partial sums
// fed round-robin over full blocks, reduced as (p0+p1)+(p2+p3), then the
// remainder tail appended sequentially. Per-lane arithmetic in the vector
// kernel is the exact scalar operation sequence (no FMA, contraction off),
// so the vector result must match this bit for bit.
void simulate_avx2_pp(const InteractionBatch& b, const Vec3d& xi, double eps2,
                      std::size_t self_slot, Vec3d& acc, double& pot) {
  const std::size_t n = b.body_count();
  const std::size_t blocks_end = n - n % 4;
  Vec3d pa[4]{};
  double pp[4]{};
  for (std::size_t j = 0; j < blocks_end; ++j) {
    if (j == self_slot) continue;  // masked lane contributes exactly +0.0
    pp_accumulate(xi, Vec3d{b.px[j], b.py[j], b.pz[j]}, b.pm[j], eps2, pa[j % 4],
                  pp[j % 4]);
  }
  acc.x += (pa[0].x + pa[1].x) + (pa[2].x + pa[3].x);
  acc.y += (pa[0].y + pa[1].y) + (pa[2].y + pa[3].y);
  acc.z += (pa[0].z + pa[1].z) + (pa[2].z + pa[3].z);
  pot += (pp[0] + pp[1]) + (pp[2] + pp[3]);
  for (std::size_t j = blocks_end; j < n; ++j) {
    if (j == self_slot) continue;
    pp_accumulate(xi, Vec3d{b.px[j], b.py[j], b.pz[j]}, b.pm[j], eps2, acc, pot);
  }
}

TEST(Batch, Avx2PpBitExactAgainstScheduleSimulation) {
  if (!batch_avx2_available()) GTEST_SKIP() << "AVX2 not available";
  PathGuard guard;
  force_batch_path(BatchPath::kAvx2);
  ASSERT_EQ(batch_path(), BatchPath::kAvx2);
  for (std::size_t n : {std::size_t{4}, std::size_t{36}, kN}) {
    for (std::uint64_t seed : {17u, 18u, 19u}) {
      const Cloud c = random_cloud(n, seed);
      const InteractionBatch batch = body_batch(c);
      const double eps2 = 1e-4;
      for (std::size_t self : {kNoSelf, std::size_t{0}, n - 1}) {
        const Vec3d xi =
            self == kNoSelf ? Vec3d{3.0, 3.5, 4.0} : c.pos[self];
        Vec3d a_ref{};
        double p_ref = 0;
        simulate_avx2_pp(batch, xi, eps2, self, a_ref, p_ref);
        Vec3d a_v{};
        double p_v = 0;
        batch_pp(batch, xi, eps2, self, a_v, p_v);
        EXPECT_EQ(std::memcmp(&a_v, &a_ref, sizeof a_v), 0)
            << "n=" << n << " seed=" << seed << " self=" << self;
        EXPECT_EQ(p_v, p_ref) << "n=" << n << " seed=" << seed << " self=" << self;
      }
    }
  }
}

TEST(Batch, Avx2PpWithin2UlpOfScalar) {
  if (!batch_avx2_available()) GTEST_SKIP() << "AVX2 not available";
  PathGuard guard;
  // Per-lane arithmetic is bit-identical across paths (see the schedule
  // simulation test); the residual cross-path difference is pure summation
  // order, within 2 ulp at block scale. Long-list drift grows with list
  // length and is covered by Avx2RandomGeometryCloseToScalar.
  for (std::uint64_t seed : {17u, 18u, 19u, 20u, 21u}) {
    const std::size_t n = 4;
    const Cloud c = random_cloud(n, seed);
    const InteractionBatch batch = body_batch(c);
    // Sink outside the source cloud: per-component contributions share a
    // sign, so the ulp bound is meaningful (no catastrophic cancellation).
    const Vec3d xi{3.0, 3.5, 4.0};
    const double eps2 = 1e-4;
    force_batch_path(BatchPath::kScalar);
    Vec3d a_s{};
    double p_s = 0;
    batch_pp(batch, xi, eps2, kNoSelf, a_s, p_s);
    force_batch_path(BatchPath::kAvx2);
    ASSERT_EQ(batch_path(), BatchPath::kAvx2);
    Vec3d a_v{};
    double p_v = 0;
    batch_pp(batch, xi, eps2, kNoSelf, a_v, p_v);
    EXPECT_TRUE(WithinUlps(a_s.x, a_v.x, 2)) << "seed=" << seed;
    EXPECT_TRUE(WithinUlps(a_s.y, a_v.y, 2)) << "seed=" << seed;
    EXPECT_TRUE(WithinUlps(a_s.z, a_v.z, 2)) << "seed=" << seed;
    EXPECT_TRUE(WithinUlps(p_s, p_v, 2)) << "seed=" << seed;
  }
}

TEST(Batch, Avx2PcWithin2UlpOfScalar) {
  if (!batch_avx2_available()) GTEST_SKIP() << "AVX2 not available";
  PathGuard guard;
  Xoshiro256ss rng(19);
  // Block-scale list (one 4-wide block plus a tail): the residual difference
  // is summation order only, within 2 ulp at this size.
  for (bool use_quad : {false, true}) {
    InteractionBatch batch;
    batch.use_quad = use_quad;
    for (std::size_t j = 0; j < 6; ++j) {
      std::array<double, 6> q{};
      for (double& v : q) v = rng.uniform(-0.05, 0.05);
      batch.add_cell({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                      rng.uniform(0.0, 1.0)},
                     rng.uniform(0.5, 5.0), q);
    }
    const Vec3d xi{3.0, 3.0, 3.0};
    force_batch_path(BatchPath::kScalar);
    Vec3d a_s{};
    double p_s = 0;
    batch_pc(batch, xi, 0.0, a_s, p_s);
    force_batch_path(BatchPath::kAvx2);
    Vec3d a_v{};
    double p_v = 0;
    batch_pc(batch, xi, 0.0, a_v, p_v);
    EXPECT_TRUE(WithinUlps(a_s.x, a_v.x, 2)) << "use_quad=" << use_quad;
    EXPECT_TRUE(WithinUlps(a_s.y, a_v.y, 2)) << "use_quad=" << use_quad;
    EXPECT_TRUE(WithinUlps(a_s.z, a_v.z, 2)) << "use_quad=" << use_quad;
    EXPECT_TRUE(WithinUlps(p_s, p_v, 2)) << "use_quad=" << use_quad;
  }
}

TEST(Batch, Avx2RandomGeometryCloseToScalar) {
  if (!batch_avx2_available()) GTEST_SKIP() << "AVX2 not available";
  PathGuard guard;
  // Sinks inside the cloud: components can cancel, so compare against the
  // accumulated magnitude rather than per-component ulps.
  const Cloud c = random_cloud(kN, 23);
  const InteractionBatch batch = body_batch(c);
  const double eps2 = 1e-4;
  for (std::size_t i = 0; i < kN; i += 17) {
    force_batch_path(BatchPath::kScalar);
    Vec3d a_s{};
    double p_s = 0;
    batch_pp(batch, c.pos[i], eps2, i, a_s, p_s);
    force_batch_path(BatchPath::kAvx2);
    Vec3d a_v{};
    double p_v = 0;
    batch_pp(batch, c.pos[i], eps2, i, a_v, p_v);
    const double scale = norm(a_s) + std::abs(p_s);
    EXPECT_LT(norm(a_s - a_v), 1e-12 * scale);
    EXPECT_LT(std::abs(p_s - p_v), 1e-12 * scale);
  }
}

TEST(Batch, SelfSlotMaskingEveryLanePosition) {
  // The sink coincides with its own slot and eps2 = 0: the self lane's
  // 1/sqrt(0) = inf must be masked out, not multiplied into NaN, for every
  // lane position in a 4-wide block and in the scalar tail.
  PathGuard guard;
  const Cloud c = random_cloud(11, 29);
  const InteractionBatch batch = body_batch(c);
  for (BatchPath path : {BatchPath::kScalar, BatchPath::kAvx2}) {
    if (path == BatchPath::kAvx2 && !batch_avx2_available()) continue;
    force_batch_path(path);
    for (std::size_t i = 0; i < c.pos.size(); ++i) {
      Vec3d a{};
      double p = 0;
      batch_pp(batch, c.pos[i], /*eps2=*/0.0, i, a, p);
      EXPECT_TRUE(std::isfinite(p)) << "path=" << batch_path_name() << " i=" << i;
      EXPECT_TRUE(std::isfinite(a.x) && std::isfinite(a.y) && std::isfinite(a.z))
          << "path=" << batch_path_name() << " i=" << i;
    }
  }
}

TEST(Batch, TallyExactAcrossPaths) {
  // The batch layer only reschedules arithmetic; the interaction counts (and
  // therefore the 38-flop totals) must be identical on every path.
  PathGuard guard;
  const Cloud c = random_cloud(128, 31);
  std::vector<Vec3d> acc(c.pos.size());
  std::vector<double> pot(c.pos.size());

  force_batch_path(BatchPath::kScalar);
  const InteractionTally direct_s =
      direct_forces(c.pos, c.mass, 0.05, 1.0, acc, pot);
  hot::Tree tree;
  const morton::Domain domain = morton::bounding_domain(c.pos.data(), c.pos.size(), 0.05);
  tree.build(c.pos, c.mass, domain);
  TreeForceConfig cfg;
  cfg.softening = 0.05;
  std::vector<Vec3d> acc_t(c.pos.size());
  std::vector<double> pot_t(c.pos.size());
  const InteractionTally tree_s = tree_forces(tree, c.pos, c.mass, cfg, acc_t, pot_t, {});

  if (!batch_avx2_available()) GTEST_SKIP() << "AVX2 not available";
  force_batch_path(BatchPath::kAvx2);
  const InteractionTally direct_v =
      direct_forces(c.pos, c.mass, 0.05, 1.0, acc, pot);
  std::fill(acc_t.begin(), acc_t.end(), Vec3d{});
  std::fill(pot_t.begin(), pot_t.end(), 0.0);
  const InteractionTally tree_v = tree_forces(tree, c.pos, c.mass, cfg, acc_t, pot_t, {});

  EXPECT_EQ(direct_s.body_body, direct_v.body_body);
  EXPECT_EQ(direct_s.body_cell, direct_v.body_cell);
  EXPECT_EQ(direct_s.flops(), direct_v.flops());
  EXPECT_EQ(tree_s.body_body, tree_v.body_body);
  EXPECT_EQ(tree_s.body_cell, tree_v.body_cell);
  EXPECT_EQ(tree_s.flops(), tree_v.flops());
}

TEST(Batch, PathNameMatchesPath) {
  PathGuard guard;
  force_batch_path(BatchPath::kScalar);
  EXPECT_STREQ(batch_path_name(), "scalar");
  if (batch_avx2_available()) {
    force_batch_path(BatchPath::kAvx2);
    EXPECT_STREQ(batch_path_name(), "avx2");
  }
}

// Sizes and bit patterns of two lanes agree.
bool same_lane(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

void expect_same_batch(const InteractionBatch& got, const InteractionBatch& want,
                       const Vec3d& sink, const std::string& what) {
  EXPECT_EQ(got.use_quad, want.use_quad) << what;
  EXPECT_TRUE(same_lane(got.px, want.px)) << what;
  EXPECT_TRUE(same_lane(got.py, want.py)) << what;
  EXPECT_TRUE(same_lane(got.pz, want.pz)) << what;
  EXPECT_TRUE(same_lane(got.pm, want.pm)) << what;
  EXPECT_TRUE(same_lane(got.cx, want.cx)) << what;
  EXPECT_TRUE(same_lane(got.cy, want.cy)) << what;
  EXPECT_TRUE(same_lane(got.cz, want.cz)) << what;
  EXPECT_TRUE(same_lane(got.cm, want.cm)) << what;
  for (std::size_t q = 0; q < 6; ++q)
    EXPECT_TRUE(same_lane(got.cq[q], want.cq[q])) << what << " quad lane " << q;
  const double eps2 = 1e-4;
  Vec3d a_got{}, a_want{};
  double p_got = 0, p_want = 0;
  batch_pp(got, sink, eps2, kNoSelf, a_got, p_got);
  batch_pc(got, sink, eps2, a_got, p_got);
  batch_pp(want, sink, eps2, kNoSelf, a_want, p_want);
  batch_pc(want, sink, eps2, a_want, p_want);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a_got.x), std::bit_cast<std::uint64_t>(a_want.x))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a_got.y), std::bit_cast<std::uint64_t>(a_want.y))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a_got.z), std::bit_cast<std::uint64_t>(a_want.z))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p_got), std::bit_cast<std::uint64_t>(p_want))
      << what;
}

TEST(Batch, GatherRefillMatchesIncrementalBuild) {
  // One batch reused through the one-pass gathers must come out exactly as
  // a fresh add_body/add_cell build of each list: a long quadrupole list,
  // then shorter lists that must shrink every lane, drop the quad lanes and
  // bring them back, then nothing at all.
  const hot::Bodies b = plummer_sphere(4000, 41);
  const morton::Domain domain = morton::bounding_domain(b.pos.data(), b.pos.size(), 0.05);
  hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});
  const auto& cells = tree.cells();
  const std::vector<std::uint32_t> leaves = hot::leaf_indices(tree);
  InteractionTally tally;

  struct Step {
    hot::InteractionLists lists;
    bool quad = true;
    Vec3d sink{};
  };
  std::vector<Step> steps(4);
  // Long: the group walk of the leaf whose centre of mass is nearest the
  // cluster centre.
  std::uint32_t centre = leaves.front();
  for (std::uint32_t li : leaves)
    if (norm(cells[li].com) < norm(cells[centre].com)) centre = li;
  hot::build_interaction_lists(tree, centre, hot::Mac{.theta = 0.3}, steps[0].lists, tally);
  steps[0].sink = cells[centre].com + Vec3d{3.0, 0.0, 0.0};
  // Short: point walks from outside the core with a wide opening angle.
  for (std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    steps[k].sink = Vec3d{1.5, static_cast<double>(k), -0.5};
    hot::build_point_interaction_lists(tree, steps[k].sink, hot::Mac{.theta = 0.9},
                                       steps[k].lists, tally);
  }
  steps[1].quad = false;
  // Empty: no sources.
  steps[3].sink = Vec3d{0.1, 0.2, 0.3};

  const auto& first = steps[0].lists;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    ASSERT_GT(steps[k].lists.bodies.size(), 0u) << k;
    ASSERT_LT(steps[k].lists.bodies.size(), first.bodies.size()) << k;
    ASSERT_LT(steps[k].lists.cells.size(), first.cells.size()) << k;
  }

  PathGuard guard;
  for (BatchPath path : {BatchPath::kScalar, BatchPath::kAvx2}) {
    if (path == BatchPath::kAvx2 && !batch_avx2_available()) continue;
    force_batch_path(path);
    InteractionBatch from_tree, from_records;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const Step& st = steps[k];
      const std::string what =
          std::string(batch_path_name()) + " step " + std::to_string(k);
      InteractionBatch fresh;
      fresh.use_quad = st.quad;
      std::vector<hot::SourceRecord> body_records;
      std::vector<hot::CellRecord> cell_records;
      for (std::uint32_t j : st.lists.bodies) {
        fresh.add_body(b.pos[j], b.mass[j]);
        body_records.push_back({b.pos[j], b.mass[j]});
      }
      for (std::uint32_t ci : st.lists.cells) {
        const hot::Cell& c = cells[ci];
        fresh.add_cell(c.com, c.mass, c.quad);
        cell_records.push_back({c.com, c.mass, c.quad, c.b2, c.bmax});
      }
      gather_interaction_batch(tree, st.lists, b.pos, b.mass, st.quad, from_tree);
      expect_same_batch(from_tree, fresh, st.sink, "tree " + what);
      gather_records(body_records, cell_records, st.quad, from_records);
      expect_same_batch(from_records, fresh, st.sink, "records " + what);
    }
  }
}

}  // namespace
}  // namespace hotlib::gravity
