// Cross-module integration tests: the per-message-overhead network model,
// work-weighted decomposition across steps, and the gathered-simulation
// snapshot path of examples/cosmo_sim.
#include <gtest/gtest.h>

#include <filesystem>

#include "cosmo/simulation.hpp"
#include "gravity/models.hpp"
#include "parc/parc.hpp"
#include "util/snapshot.hpp"

namespace hotlib {
namespace {

TEST(Integration, OverheadModelMakesSmallMessagesExpensive) {
  // With per-message software overhead, 1000 tiny messages cost ~1000x the
  // overhead, while one large message of the same volume costs ~one.
  parc::NetworkParams net{.latency_s = 10e-6, .bandwidth_Bps = 1e9,
                          .overhead_s = 40e-6};
  auto run = [&](int messages, std::size_t bytes_each) {
    return parc::Runtime::run(
               2,
               [&](parc::Rank& r) {
                 std::vector<std::uint8_t> buf(bytes_each);
                 if (r.rank() == 0)
                   for (int i = 0; i < messages; ++i) r.send(1, 5, buf);
                 else
                   for (int i = 0; i < messages; ++i) (void)r.recv(0, 5);
               },
               net)
        .max_vclock;
  };
  const double many_small = run(1000, 100);
  const double one_big = run(1, 100000);
  EXPECT_GT(many_small, 30 * one_big);
  // Sender and receiver overheads overlap (pipelined), so the makespan is
  // ~1000 x one overhead, not two.
  EXPECT_NEAR(many_small, 1000 * 40e-6, 0.5 * many_small);
}

TEST(Integration, WorkWeightedDecompositionImprovesSecondStepBalance) {
  // After one force computation the work weights reflect real interaction
  // counts; the next decomposition must balance *work*, not body counts.
  auto all = gravity::plummer_sphere(3000, 17);
  const auto domain = gravity::fit_domain(all);
  const gravity::TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.35},
                                     .softening = 0.02};
  parc::Runtime::run(4, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size(); i += 4)
      local.append_from(all, i);
    const auto first = gravity::parallel_tree_forces(r, local, domain, cfg);
    const auto second = gravity::parallel_tree_forces(r, local, domain, cfg);
    // Second step decomposes on measured interaction counts.
    EXPECT_LT(second.decomp.imbalance(), 1.35);
    EXPECT_GT(first.tally.interactions(), 0u);
  });
}

TEST(Integration, SnapshotOfGatheredSimulationRoundTrips) {
  // The path examples/cosmo_sim takes: gather to rank 0, flatten the
  // positions, write them striped, and read them back unchanged.
  cosmo::SimConfig cfg;
  cfg.ics.grid_n = 8;
  parc::Runtime::run(2, [&](parc::Rank& r) {
    cosmo::CosmologySim sim(r, cfg);
    sim.step();
    const hot::Bodies all = sim.gather_all();
    if (r.rank() != 0) return;
    ASSERT_GT(all.size(), 0u);
    std::vector<double> flat;
    for (const Vec3d& x : all.pos) flat.insert(flat.end(), {x.x, x.y, x.z});
    SnapshotHeader h;
    h.particle_count = all.size();
    h.step = 1;
    h.time = sim.time();
    const std::string base =
        (std::filesystem::temp_directory_path() / "hotlib_sim_snap").string();
    ASSERT_TRUE(SnapshotWriter(base, 8).write(h, pack_doubles(flat)));

    SnapshotHeader back;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(SnapshotReader(base).read(back, payload));
    EXPECT_EQ(back.particle_count, all.size());
    EXPECT_EQ(back.step, 1u);
    EXPECT_EQ(back.time, sim.time());
    EXPECT_EQ(unpack_doubles(payload), flat);
  });
}

}  // namespace
}  // namespace hotlib
