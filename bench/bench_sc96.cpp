// bench_sc96 — Experiment E7: Loki and Hyglac joined on the Supercomputing
// '96 floor.
//
// Paper row: "the two machines performed a 10 million particle treecode
// benchmark at the rate of 2.19 Gflops. The cost of the combined system
// (including the $3000 of additional hardware...) was $103k. Thus, we quote
// ... $47/Mflop, or equivalently, 21 Gflops per million dollars."
//
// The harness runs the real parallel treecode benchmark on 2x the rank count
// of the single-machine run (measuring how doubling ranks changes the LET
// import volume — the cost of joining machines — and the interactions per
// particle of the local walk and of the import), then prints the calibrated
// SC'96 model row and the price/performance arithmetic.
#include <cstdio>

#include "gravity/models.hpp"
#include "gravity/parallel.hpp"
#include "machine/prices.hpp"
#include "parc/parc.hpp"
#include "simnet/machine.hpp"
#include "telemetry/report.hpp"
#include "telemetry/sample.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hotlib;

namespace {

struct Result {
  std::uint64_t interactions = 0;
  std::uint64_t let_interactions = 0;  // the LET import's share
  std::size_t let_bytes = 0;
  double seconds = 0;
};

Result run_benchmark(const hot::Bodies& all, int ranks) {
  const morton::Domain domain = gravity::fit_domain(all);
  const gravity::TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.35}, .softening = 0.02};
  Result res;
  WallTimer t;
  parc::Runtime::run(ranks, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size();
         i += static_cast<std::size_t>(ranks))
      local.append_from(all, i);
    const auto fr = gravity::parallel_tree_forces(r, local, domain, cfg);
    struct Agg {
      std::uint64_t ints;
      std::uint64_t let_ints;
      std::uint64_t bytes;
      Agg operator+(const Agg& o) const {
        return {ints + o.ints, let_ints + o.let_ints, bytes + o.bytes};
      }
    };
    const Agg total = r.allreduce(
        Agg{fr.tally.interactions(), fr.let_tally.interactions(),
            static_cast<std::uint64_t>(fr.let_bytes_sent)},
        parc::Sum{});
    if (r.rank() == 0) {
      res.interactions = total.ints;
      res.let_interactions = total.let_ints;
      res.let_bytes = total.bytes;
    }
  });
  res.seconds = t.seconds();
  return res;
}

}  // namespace

int main() {
  telemetry::Session session("sc96");
  std::printf("=== E7: Loki+Hyglac at SC'96 (paper: 2.19 Gflops, $47/Mflop, 21 Gflops/M$) ===\n\n");

  const auto all = gravity::plummer_sphere(telemetry::tiny_run() ? 1500 : 16000, 96);
  TextTable meas({"config", "ranks", "interactions", "per particle: local walk",
                  "per particle: LET import", "LET bytes", "Mflops (host)"});
  const double n = static_cast<double>(all.size());
  for (int ranks : {8, 16}) {
    const Result r = run_benchmark(all, ranks);
    meas.add_row({ranks == 8 ? "one machine" : "joined machines",
                  TextTable::integer(ranks),
                  TextTable::integer(static_cast<long long>(r.interactions)),
                  TextTable::num(static_cast<double>(r.interactions - r.let_interactions) / n,
                                 0),
                  TextTable::num(static_cast<double>(r.let_interactions) / n, 0),
                  TextTable::integer(static_cast<long long>(r.let_bytes)),
                  TextTable::num(38.0 * static_cast<double>(r.interactions) /
                                     r.seconds / 1e6,
                                 0)});
  }
  std::printf("Measured (16k-body benchmark; doubling ranks raises the LET volume —\n"
              "the traffic that crossed the SC'96 show floor):\n%s\n",
              meas.to_string().c_str());
  telemetry::sample_now();

  const auto sc96 = simnet::sc96_cluster();
  const double ipp = 3000.0;  // treecode benchmark, moderately clustered
  const auto proj = simnet::project_tree_run(sc96, 10e6, 1, ipp, false);
  session.metric("gflops_model_sc96", proj.gflops());
  session.set_modelled_seconds(proj.seconds);
  TextTable model({"row", "modelled", "paper"});
  model.add_row({"10M-body benchmark throughput",
                 TextTable::num(proj.gflops(), 2) + " Gflops", "2.19 Gflops"});
  model.add_row({"price/performance",
                 "$" + TextTable::num(machine::dollars_per_mflop(sc96.cost_usd,
                                                                 proj.gflops() * 1e9),
                                      0) +
                     "/Mflop",
                 "$47/Mflop"});
  model.add_row({"Gflops per million dollars",
                 TextTable::num(machine::gflops_per_million_dollars(
                                    sc96.cost_usd, proj.gflops() * 1e9),
                                1),
                 "21"});
  std::printf("SC'96 model rows (32 procs, $103k incl. $3k of interconnect):\n%s\n",
              model.to_string().c_str());
  telemetry::sample_now();
  return 0;
}
