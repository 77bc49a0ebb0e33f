// Bit-exact determinism sweep over HOTLIB_THREADS: the test suite the
// shared-memory parallelism stands on. The contract (docs/parallelism.md):
// forces, potentials, 38-flop tallies, the tree's cell layout and the body
// permutation are IDENTICAL — compared bit-for-bit, not to a tolerance —
// for any thread count, and across repeated runs at the same thread count
// (work stealing must affect timing only). Runs under the `tsan` label too
// (scripts/tsan.sh).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gravity/direct.hpp"
#include "gravity/evaluate.hpp"
#include "gravity/evaluator.hpp"
#include "gravity/models.hpp"
#include "hot/let.hpp"
#include "hot/mac.hpp"
#include "hot/tree.hpp"
#include "morton/key.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "vortex/vpm.hpp"

namespace {

using hotlib::InteractionTally;
using hotlib::Vec3d;
using hotlib::util::TaskPool;

// Bitwise equality for doubles/Vec3d: catches -0.0 vs 0.0 and any last-ulp
// drift a tolerance comparison would wave through.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool same_bits(const Vec3d& a, const Vec3d& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

template <class T>
::testing::AssertionResult bitwise_equal(const std::vector<T>& a,
                                         const std::vector<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i]))
      return ::testing::AssertionFailure() << "element " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

bool operator_eq_tally(const InteractionTally& a, const InteractionTally& b) {
  return a.body_body == b.body_body && a.body_cell == b.body_cell &&
         a.cells_opened == b.cells_opened && a.mac_tests == b.mac_tests;
}

// The thread counts of the determinism sweep. hardware_concurrency is in
// the set so the sweep covers whatever this machine would default to.
std::vector<int> sweep_threads() {
  std::vector<int> t{1, 2, 3, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) t.push_back(static_cast<int>(hw));
  return t;
}

// Restore a 1-lane global pool after each test so the rest of the suite
// sees the serial default regardless of sweep order.
class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { TaskPool::set_global_concurrency(0); }
};

struct GravityResult {
  std::vector<Vec3d> acc;
  std::vector<double> pot;
  std::vector<double> work;
  InteractionTally tally;
  // Tree structure, captured field-by-field.
  std::vector<hotlib::morton::Key> cell_keys;
  std::vector<std::uint32_t> topology;  // first_child, nchildren, body ranges
  std::vector<double> moments;          // mass, com, quad, b2, bmax per cell
  std::vector<std::uint32_t> order;
  int max_depth = 0;
};

GravityResult run_gravity(int nthreads, std::size_t n, bool quadrupole) {
  TaskPool::set_global_concurrency(nthreads);
  hotlib::hot::Bodies b = hotlib::gravity::plummer_sphere(n, /*seed=*/42);
  const hotlib::morton::Domain domain =
      hotlib::morton::bounding_domain(b.pos.data(), b.pos.size());
  hotlib::hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});

  GravityResult r;
  r.acc.assign(b.size(), Vec3d{});
  r.pot.assign(b.size(), 0.0);
  r.work.assign(b.size(), 0.0);
  hotlib::gravity::TreeForceConfig cfg;
  cfg.mac.theta = 0.7;
  cfg.mac.quadrupole = quadrupole;
  cfg.softening = 0.01;
  r.tally = hotlib::gravity::tree_forces(tree, b.pos, b.mass, cfg, r.acc, r.pot, r.work);

  for (const hotlib::hot::Cell& c : tree.cells()) {
    r.cell_keys.push_back(c.key);
    r.topology.insert(r.topology.end(),
                      {c.first_child, c.nchildren, c.body_begin, c.body_count});
    r.moments.insert(r.moments.end(), {c.mass, c.com.x, c.com.y, c.com.z, c.quad[0],
                                       c.quad[1], c.quad[2], c.quad[3], c.quad[4],
                                       c.quad[5], c.b2, c.bmax});
  }
  r.order.assign(tree.order().begin(), tree.order().end());
  r.max_depth = tree.max_depth();
  return r;
}

void expect_same_gravity(const GravityResult& a, const GravityResult& b,
                         const char* what) {
  EXPECT_TRUE(bitwise_equal(a.acc, b.acc)) << what << ": acc";
  EXPECT_TRUE(bitwise_equal(a.pot, b.pot)) << what << ": pot";
  EXPECT_TRUE(bitwise_equal(a.work, b.work)) << what << ": work";
  EXPECT_TRUE(operator_eq_tally(a.tally, b.tally)) << what << ": tally";
  EXPECT_EQ(a.cell_keys, b.cell_keys) << what << ": cell keys";
  EXPECT_EQ(a.topology, b.topology) << what << ": cell topology";
  EXPECT_TRUE(bitwise_equal(a.moments, b.moments)) << what << ": moments";
  EXPECT_EQ(a.order, b.order) << what << ": body permutation";
  EXPECT_EQ(a.max_depth, b.max_depth) << what << ": max_depth";
}

TEST_F(ParallelDeterminism, GravitySweepBitExact) {
  const GravityResult ref = run_gravity(1, 3000, /*quadrupole=*/true);
  ASSERT_GT(ref.tally.interactions(), 0u);
  for (int t : sweep_threads()) {
    const GravityResult got = run_gravity(t, 3000, true);
    expect_same_gravity(ref, got, ("threads=" + std::to_string(t)).c_str());
  }
}

TEST_F(ParallelDeterminism, GravitySweepMonopoleOnly) {
  const GravityResult ref = run_gravity(1, 2000, /*quadrupole=*/false);
  for (int t : {2, 8}) {
    const GravityResult got = run_gravity(t, 2000, false);
    expect_same_gravity(ref, got, ("threads=" + std::to_string(t)).c_str());
  }
}

TEST_F(ParallelDeterminism, RepeatedRunsSameThreadCountStealOrderIndependent) {
  // Same thread count twice: steal order and scratch-buffer reuse differ
  // between runs, the bits must not.
  for (int rep = 0; rep < 3; ++rep) {
    const GravityResult a = run_gravity(8, 2500, true);
    const GravityResult b = run_gravity(8, 2500, true);
    expect_same_gravity(a, b, ("rep=" + std::to_string(rep)).c_str());
  }
}

TEST_F(ParallelDeterminism, DirectForcesSweepBitExact) {
  hotlib::hot::Bodies b = hotlib::gravity::plummer_sphere(800, 7);
  std::vector<Vec3d> ref_acc(b.size());
  std::vector<double> ref_pot(b.size());
  TaskPool::set_global_concurrency(1);
  const InteractionTally ref = hotlib::gravity::direct_forces(
      b.pos, b.mass, /*eps=*/0.02, /*G=*/1.0, ref_acc, ref_pot);
  for (int t : sweep_threads()) {
    TaskPool::set_global_concurrency(t);
    std::vector<Vec3d> acc(b.size());
    std::vector<double> pot(b.size());
    const InteractionTally got =
        hotlib::gravity::direct_forces(b.pos, b.mass, 0.02, 1.0, acc, pot);
    EXPECT_TRUE(bitwise_equal(ref_acc, acc)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref_pot, pot)) << "threads=" << t;
    EXPECT_TRUE(operator_eq_tally(ref, got)) << "threads=" << t;
  }
}

TEST_F(ParallelDeterminism, LetImportApplicationBitExact) {
  // Fabricated import: the per-sink-group walk of the imported bodies must
  // reproduce the serial accumulation exactly (shared read-only cell batch,
  // disjoint sink groups).
  hotlib::hot::Bodies b = hotlib::gravity::plummer_sphere(700, 3);
  hotlib::hot::LetImport import;
  for (std::size_t i = 0; i < 200; ++i) {
    import.bodies.push_back({Vec3d{1.0 + 0.01 * static_cast<double>(i), -0.5, 0.25},
                             1e-3 * static_cast<double>(i + 1)});
  }
  for (std::size_t i = 0; i < 64; ++i) {
    hotlib::hot::CellRecord c;
    c.com = Vec3d{-2.0, 0.03 * static_cast<double>(i), 1.5};
    c.mass = 0.5 + 0.1 * static_cast<double>(i);
    c.quad = {0.1, 0.02, -0.03, 0.05, 0.001, -0.15};
    c.b2 = 0.2;
    c.bmax = 0.4;
    import.cells.push_back(c);
  }
  hotlib::gravity::TreeForceConfig cfg;
  cfg.softening = 0.01;

  TaskPool::set_global_concurrency(1);
  hotlib::hot::Tree sinks;
  sinks.build(b.pos, b.mass, hotlib::gravity::fit_domain(b));
  import.sinks = &sinks;
  std::vector<Vec3d> ref_acc(b.size(), Vec3d{});
  std::vector<double> ref_pot(b.size(), 0.0), ref_work(b.size(), 0.0);
  const InteractionTally ref = hotlib::gravity::apply_let_import(
      import, b.pos, cfg, ref_acc, ref_pot, ref_work);
  // Every sink takes every imported cell, some take imported bodies, and no
  // sink takes all of them: far groups accept a multipole of the import tree.
  EXPECT_GT(ref.body_body, 0u);
  EXPECT_GT(ref.body_cell, 0u);
  EXPECT_LT(ref.interactions(),
            b.size() * (import.bodies.size() + import.cells.size()));
  for (int t : sweep_threads()) {
    TaskPool::set_global_concurrency(t);
    std::vector<Vec3d> acc(b.size(), Vec3d{});
    std::vector<double> pot(b.size(), 0.0), work(b.size(), 0.0);
    const InteractionTally got =
        hotlib::gravity::apply_let_import(import, b.pos, cfg, acc, pot, work);
    EXPECT_TRUE(bitwise_equal(ref_acc, acc)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref_pot, pot)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref_work, work)) << "threads=" << t;
    EXPECT_TRUE(operator_eq_tally(ref, got)) << "threads=" << t;
  }
}

struct VortexResult {
  std::vector<Vec3d> pos, alpha, vel, dalpha;
  InteractionTally tally;
};

VortexResult run_vortex(int nthreads) {
  TaskPool::set_global_concurrency(nthreads);
  hotlib::vortex::VortexParticles p = hotlib::vortex::make_ring(
      1500, /*radius=*/1.0, /*gamma=*/1.0, Vec3d{0, 0, 0}, Vec3d{0, 0, 1},
      /*sigma=*/0.08);
  hotlib::hot::Mac mac;
  mac.theta = 0.55;
  VortexResult r;
  r.tally = hotlib::vortex::tree_velocities(p, mac, /*bucket_size=*/16);
  r.tally += hotlib::vortex::step_rk2(p, /*dt=*/1e-3, mac);
  r.pos = p.pos;
  r.alpha = p.alpha;
  r.vel = p.vel;
  r.dalpha = p.dalpha;
  return r;
}

TEST_F(ParallelDeterminism, VortexSweepBitExact) {
  const VortexResult ref = run_vortex(1);
  ASSERT_GT(ref.tally.interactions(), 0u);
  for (int t : sweep_threads()) {
    const VortexResult got = run_vortex(t);
    EXPECT_TRUE(bitwise_equal(ref.pos, got.pos)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref.alpha, got.alpha)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref.vel, got.vel)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref.dalpha, got.dalpha)) << "threads=" << t;
    EXPECT_TRUE(operator_eq_tally(ref.tally, got.tally)) << "threads=" << t;
  }
}

// The serving layer's query primitive: per-point walks parallelized over the
// pool must be bit-exact at every thread count, or concurrent queries would
// not be reproducible against a quiesced replay.
TEST_F(ParallelDeterminism, EvaluateAtSweepBitExact) {
  hotlib::hot::Bodies b = hotlib::gravity::plummer_sphere(1200, /*seed=*/57);
  const hotlib::morton::Domain domain =
      hotlib::morton::bounding_domain(b.pos.data(), b.pos.size(), /*pad=*/0.2);
  hotlib::Xoshiro256ss rng(358);
  std::vector<Vec3d> pts(97);  // deliberately not a multiple of any chunking
  for (auto& p : pts) p = rng.in_sphere(1.2);
  const hotlib::gravity::TreeForceConfig cfg{
      .mac = hotlib::hot::Mac{.theta = 0.55}, .softening = 0.02};

  TaskPool::set_global_concurrency(1);
  hotlib::hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});
  std::vector<Vec3d> ref_acc(pts.size());
  std::vector<double> ref_pot(pts.size());
  const InteractionTally ref =
      hotlib::gravity::evaluate_at(tree, b.pos, b.mass, cfg, pts, ref_acc, ref_pot);
  ASSERT_GT(ref.interactions(), 0u);

  for (int t : sweep_threads()) {
    TaskPool::set_global_concurrency(t);
    std::vector<Vec3d> acc(pts.size());
    std::vector<double> pot(pts.size());
    const InteractionTally got =
        hotlib::gravity::evaluate_at(tree, b.pos, b.mass, cfg, pts, acc, pot);
    EXPECT_TRUE(bitwise_equal(ref_acc, acc)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref_pot, pot)) << "threads=" << t;
    EXPECT_TRUE(operator_eq_tally(ref, got)) << "threads=" << t;
    // Repeat at the same thread count: work stealing affects timing only.
    std::vector<Vec3d> acc2(pts.size());
    std::vector<double> pot2(pts.size());
    hotlib::gravity::evaluate_at(tree, b.pos, b.mass, cfg, pts, acc2, pot2);
    EXPECT_TRUE(bitwise_equal(acc, acc2)) << "threads=" << t;
  }
}

TEST_F(ParallelDeterminism, VortexDirectSweepBitExact) {
  hotlib::vortex::VortexParticles ref_p = hotlib::vortex::make_ring(
      600, 1.0, 1.0, Vec3d{0, 0, 0}, Vec3d{0, 0, 1}, 0.1);
  TaskPool::set_global_concurrency(1);
  const InteractionTally ref = hotlib::vortex::direct_velocities(ref_p);
  for (int t : sweep_threads()) {
    TaskPool::set_global_concurrency(t);
    hotlib::vortex::VortexParticles p = hotlib::vortex::make_ring(
        600, 1.0, 1.0, Vec3d{0, 0, 0}, Vec3d{0, 0, 1}, 0.1);
    const InteractionTally got = hotlib::vortex::direct_velocities(p);
    EXPECT_TRUE(bitwise_equal(ref_p.vel, p.vel)) << "threads=" << t;
    EXPECT_TRUE(bitwise_equal(ref_p.dalpha, p.dalpha)) << "threads=" << t;
    EXPECT_TRUE(operator_eq_tally(ref, got)) << "threads=" << t;
  }
}

}  // namespace
