// Tests for the request-driven distributed traversal (hot::DistributedTree)
// and the ABM gravity pipeline: crown completeness, mass coverage of every
// sink group's interaction set, force agreement with the exact direct sum,
// consistency with the LET-push pipeline, and caching/latency-hiding
// behaviour of the request machinery.
#include <gtest/gtest.h>

#include "gravity/abm_forces.hpp"
#include "gravity/direct.hpp"
#include "gravity/models.hpp"
#include "gravity/parallel.hpp"
#include "hot/dtree.hpp"
#include "parc/parc.hpp"
#include "util/stats.hpp"

namespace hotlib::hot {
namespace {

using gravity::fit_domain;
using gravity::plummer_sphere;

// Build a distributed setup on p ranks and run a traversal that checks,
// for every sink group, that the accepted mass equals the global mass.
void check_mass_coverage(int p, std::size_t n, double theta) {
  auto all = plummer_sphere(n, 77);
  const auto domain = fit_domain(all);
  const double total_mass = 1.0;

  parc::Runtime::run(p, [&](parc::Rank& r) {
    Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n;
         i += static_cast<std::size_t>(p))
      local.append_from(all, i);
    const auto ranges = decompose(r, local, domain);
    Tree tree;
    tree.build(local.pos, local.mass, domain);
    DistributedTree dtree(r, tree, local.pos, local.mass, ranges, domain);

    std::size_t groups = 0;
    const auto stats = dtree.traverse(
        Mac{.theta = theta},
        [&](std::uint32_t, const InteractionLists& lists,
            const DistributedTree::RemoteLists& remote) {
          double mass = 0;
          for (std::uint32_t j : lists.bodies) mass += local.mass[j];
          for (std::uint32_t ci : lists.cells) mass += tree.cells()[ci].mass;
          for (const auto& s : remote.bodies) mass += s.mass;
          for (const auto& c : remote.cells) mass += c.mass;
          ASSERT_NEAR(mass, total_mass, 1e-9) << "group misses mass";
          ++groups;
        });
    EXPECT_GT(groups, 0u);
    if (p > 1) {
      EXPECT_GT(stats.crown_cells, 0u);
      const auto reqs = r.allreduce(stats.requests_sent, parc::Sum{});
      EXPECT_GT(reqs, 0u);
    }
  });
}

class DtreeCoverage : public ::testing::TestWithParam<int> {};

TEST_P(DtreeCoverage, EveryGroupSeesAllMassExactlyOnce) {
  check_mass_coverage(GetParam(), 1500, 0.5);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DtreeCoverage, ::testing::Values(1, 2, 3, 4, 8));

TEST(Dtree, TightMacStillCovers) { check_mass_coverage(4, 800, 0.2); }

class AbmForces : public ::testing::TestWithParam<int> {};

TEST_P(AbmForces, MatchesDirectSumToMacAccuracy) {
  const int p = GetParam();
  const std::size_t n = 1200;
  auto all = plummer_sphere(n, 53);
  const auto domain = fit_domain(all);
  const gravity::TreeForceConfig cfg{.mac = Mac{.theta = 0.4}, .softening = 0.02};

  std::vector<Vec3d> exact_acc(n);
  std::vector<double> exact_pot(n);
  gravity::direct_forces(all.pos, all.mass, 0.02, 1.0, exact_acc, exact_pot);
  RunningStats mag;
  for (const auto& a : exact_acc) mag.add(norm(a));

  std::vector<double> worst(1, 0.0);
  parc::Runtime::run(p, [&](parc::Rank& r) {
    Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n;
         i += static_cast<std::size_t>(p))
      local.append_from(all, i);
    const auto result = gravity::abm_tree_forces(r, local, domain, cfg);
    EXPECT_GT(result.tally.interactions(), 0u);
    RunningStats err;
    for (std::size_t i = 0; i < local.size(); ++i)
      err.add(norm(local.acc[i] - exact_acc[local.id[i]]));
    const double rel = err.rms() / mag.rms();
    const double w = r.allreduce(rel, parc::Max{});
    if (r.rank() == 0) worst[0] = w;
  });
  EXPECT_LT(worst[0], 2e-2);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AbmForces, ::testing::Values(1, 2, 4, 8));

TEST(AbmForces, AgreesWithLetPushPipeline) {
  // Both parallel pipelines implement the same MAC; their accelerations must
  // agree to within the MAC error budget (they differ in which conservative
  // distance each used, not in physics).
  const std::size_t n = 1000;
  auto all = plummer_sphere(n, 11);
  const auto domain = fit_domain(all);
  const gravity::TreeForceConfig cfg{.mac = Mac{.theta = 0.4}, .softening = 0.02};

  std::vector<Vec3d> abm_acc(n), let_acc(n);
  parc::Runtime::run(4, [&](parc::Rank& r) {
    Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n; i += 4)
      local.append_from(all, i);
    gravity::abm_tree_forces(r, local, domain, cfg);
    for (std::size_t i = 0; i < local.size(); ++i) abm_acc[local.id[i]] = local.acc[i];
  });
  parc::Runtime::run(4, [&](parc::Rank& r) {
    Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n; i += 4)
      local.append_from(all, i);
    gravity::parallel_tree_forces(r, local, domain, cfg);
    for (std::size_t i = 0; i < local.size(); ++i) let_acc[local.id[i]] = local.acc[i];
  });
  RunningStats diff, mag;
  for (std::size_t i = 0; i < n; ++i) {
    diff.add(norm(abm_acc[i] - let_acc[i]));
    mag.add(norm(let_acc[i]));
  }
  EXPECT_LT(diff.rms(), 3e-2 * mag.rms());
}

TEST(Dtree, CachingMakesLaterGroupsCheaper) {
  // Total requests must be far below (groups x remote cells): the remote
  // cache turns repeated accesses into hits, which is what lets the paper
  // hide latency.
  const std::size_t n = 3000;
  auto all = plummer_sphere(n, 21);
  const auto domain = fit_domain(all);
  parc::Runtime::run(4, [&](parc::Rank& r) {
    Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n; i += 4)
      local.append_from(all, i);
    const auto ranges = decompose(r, local, domain);
    Tree tree;
    tree.build(local.pos, local.mass, domain);
    DistributedTree dtree(r, tree, local.pos, local.mass, ranges, domain);
    const auto stats = dtree.traverse(Mac{.theta = 0.4},
                                      [](std::uint32_t, const InteractionLists&,
                                         const DistributedTree::RemoteLists&) {});
    EXPECT_GT(stats.cache_hits, 5 * stats.requests_sent);
  });
}

TEST(Dtree, RequestsAreBatched) {
  // The ABM layer must coalesce key requests: the batches every rank ships
  // stay far below the number of requests+replies. Each rank counts its own
  // sends between barriers, so no rank's decomposition or collective
  // traffic leaks into the window.
  const std::size_t n = 2000;
  auto all = plummer_sphere(n, 33);
  const auto domain = fit_domain(all);
  parc::Runtime::run(4, [&](parc::Rank& r) {
    Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n; i += 4)
      local.append_from(all, i);
    const auto ranges = decompose(r, local, domain);
    Tree tree;
    tree.build(local.pos, local.mass, domain);
    r.barrier();
    const std::uint64_t before = r.am_batches_sent();
    DistributedTree dtree(r, tree, local.pos, local.mass, ranges, domain);
    const auto stats = dtree.traverse(Mac{.theta = 0.4},
                                      [](std::uint32_t, const InteractionLists&,
                                         const DistributedTree::RemoteLists&) {});
    r.barrier();
    const std::uint64_t msgs = r.allreduce(r.am_batches_sent() - before, parc::Sum{});
    const std::uint64_t traffic =
        r.allreduce(stats.requests_sent + stats.replies_served, parc::Sum{});
    if (traffic > 100) {
      EXPECT_LT(msgs, traffic);
    }
  });
}

}  // namespace
}  // namespace hotlib::hot
