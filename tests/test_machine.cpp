// Tests for src/machine and src/simnet: the paper's price tables, the
// $/Mflop arithmetic, and the machine-model projections against the paper's
// own reported numbers.
#include <gtest/gtest.h>

#include "machine/prices.hpp"
#include "simnet/machine.hpp"

namespace hotlib {
namespace {

TEST(Prices, LokiTable1TotalMatchesPaper) {
  const auto lines = machine::loki_parts_sept1996();
  EXPECT_DOUBLE_EQ(machine::total_price(lines), 51379.0);
}

TEST(Prices, Aug1997SystemIsAbout28k) {
  // "A 16 processor 200Mhz-2 Gbyte memory-50 Gbyte disk system with BayStack
  // switch would be $28k."
  const double total = machine::total_price(machine::system_aug1997());
  EXPECT_NEAR(total, 28000.0, 1500.0);
}

TEST(Prices, DollarsPerMflop) {
  // Loki's 10-day run: $51,379 at 879 Mflops sustained => ~$58/Mflop.
  EXPECT_NEAR(machine::dollars_per_mflop(51379.0, 879e6), 58.45, 0.1);
  // SC'96: $103k at 2.19 Gflops => ~$47/Mflop and ~21 Gflops/M$.
  EXPECT_NEAR(machine::dollars_per_mflop(103000.0, 2.19e9), 47.0, 0.5);
  EXPECT_NEAR(machine::gflops_per_million_dollars(103000.0, 2.19e9), 21.3, 0.3);
}

TEST(Simnet, CatalogBasics) {
  const auto machines = simnet::catalog();
  EXPECT_GE(machines.size(), 8u);
  const auto red = simnet::asci_red_april97();
  EXPECT_EQ(red.procs(), 6800);
  EXPECT_NEAR(red.peak_flops(), 1.36e12, 1e10);  // paper: 1.36 Tflops peak
  const auto loki = simnet::loki();
  EXPECT_EQ(loki.procs(), 16);
  EXPECT_DOUBLE_EQ(loki.cost_usd, 51379.0);
  // The paper's measured MPI round trips, which bench_comm's modelled
  // loki_roundtrip_us reproduces: 208 us on Loki, 41 us on ASCI Red.
  EXPECT_NEAR(2 * loki.net.effective_latency(), 208e-6, 1e-12);
  EXPECT_NEAR(2 * red.net.effective_latency(), 41e-6, 1e-12);
}

TEST(Simnet, NsqProjectionReproduces635Gflops) {
  // E1: 1M particles, 4 steps, 6800 procs, paper: 239.3 s => 635 Gflops.
  const auto red = simnet::asci_red_april97();
  const auto proj = simnet::project_nsq_run(red, 1e6, 4);
  EXPECT_NEAR(proj.gflops(), 635.0, 10.0);
  EXPECT_NEAR(proj.seconds, 239.3, 5.0);
}

TEST(Simnet, TreecodeProjectionReproduces430And170Gflops) {
  // E3: first 5 steps on 6800 procs: 7.18e12 interactions in 632 s => 431
  // Gflops. interactions/particle = 7.18e12 / (322e6 * 5) = ~4459.
  const auto red = simnet::asci_red_april97();
  const auto early = simnet::project_tree_run(red, 322e6, 5, 4459.0, false);
  EXPECT_NEAR(early.gflops(), 431.0, 15.0);

  // E2: steps 150-437 on 2048 nodes: 1.52e14 interactions over 9.4 h => 170
  // Gflops; interactions/particle/step = 1.52e14 / (322e6 * 287) = ~1645.
  const auto red2048 = simnet::asci_red_2048();
  const auto sustained = simnet::project_tree_run(red2048, 322e6, 287, 1645.0, true);
  EXPECT_NEAR(sustained.gflops(), 170.0, 10.0);
  EXPECT_NEAR(sustained.seconds / 3600.0, 9.4, 0.6);
}

TEST(Simnet, LokiProjectionReproduces1190And879Mflops) {
  // E5: Loki first 30 steps: 1.15e12 interactions in 36973 s => 1.19 Gflops.
  const auto loki = simnet::loki();
  const double ipp_early = 1.15e12 / (9.75e6 * 30);
  const auto early = simnet::project_tree_run(loki, 9.75e6, 30, ipp_early, false);
  EXPECT_NEAR(early.gflops(), 1.19, 0.05);
  EXPECT_NEAR(early.seconds, 36973.0, 2000.0);

  // Whole run to Apr 30: 1.97e13 interactions in 850000 s => 879 Mflops.
  const double ipp = 1.97e13 / (9.75e6 * 750);
  const auto run = simnet::project_tree_run(loki, 9.75e6, 750, ipp, true);
  EXPECT_NEAR(run.gflops(), 0.879, 0.05);
}

TEST(Simnet, ParticlesPerSecondAndGrapeComparison) {
  // Conclusion: treecode updates ~3e6 particles/s on 3400 nodes; the N^2
  // algorithm on the same machine manages ~52 particles/s; the treecode is
  // therefore ~1e5 x more efficient at fixed accuracy.
  const auto red = simnet::asci_red_april97();
  const auto tree = simnet::project_tree_run(red, 322e6, 5, 4459.0, false);
  const double tree_pps = simnet::particles_per_second(tree, 322e6, 5);
  EXPECT_NEAR(tree_pps / 3e6, 1.0, 0.25);

  const auto nsq = simnet::project_nsq_run(red, 322e6, 1);
  const double nsq_pps = simnet::particles_per_second(nsq, 322e6, 1);
  EXPECT_NEAR(nsq_pps / 52.0, 1.0, 0.25);
  // "approximately 1e5 times more efficient": same order of magnitude.
  EXPECT_GT(tree_pps / nsq_pps, 3e4);
  EXPECT_LT(tree_pps / nsq_pps, 3e5);

  // GRAPE-like device on the same N: comparable to the Red N^2 rate, i.e.
  // vastly slower than the treecode.
  const double grape_pps =
      simnet::grape_particles_per_second(simnet::grape4_like(), 322e6);
  EXPECT_LT(grape_pps, tree_pps / 1e4);
}

TEST(Simnet, EthernetVsMeshMattersForCommBoundRuns) {
  // A communication-dominated pattern (tiny compute, large volume) must be
  // much slower on Loki's fast ethernet than on the Red mesh.
  const auto loki = simnet::loki();
  const auto red16 = simnet::asci_red_16();
  const auto on_loki = simnet::project_interactions(loki, 1e6, 5e8, 1000);
  const auto on_red = simnet::project_interactions(red16, 1e6, 5e8, 1000);
  EXPECT_GT(on_loki.seconds, 5 * on_red.seconds);
}

}  // namespace
}  // namespace hotlib
