// bench_abm — ablation: LET-push vs ABM request-driven traversal.
//
// The paper's production code hides latency with request-driven traversal
// over asynchronous batched messages; many later codes instead push locally
// essential trees (LET) eagerly. hotlib implements both on the same tree
// (gravity::parallel_tree_forces vs gravity::abm_tree_forces); this harness
// compares their interaction counts, imported data volumes and message
// counts on the same problem, and reports the modelled time on Loki's
// fast-ethernet network for each.
//
// Expected shape: ABM imports far less data (only what each sink group's
// MAC actually opens) at the cost of request round trips; batching keeps the
// message count small, so on a high-latency network ABM's modelled comm time
// stays competitive. ABM evaluates the sequential walk's interactions; LET
// evaluates more, because each imported multipole was accepted for the
// receiver's whole domain and acts on every sink there (the imported bodies
// are walked per sink group, as ABM walks its remote cells).
#include <cstdio>

#include "gravity/abm_forces.hpp"
#include "gravity/models.hpp"
#include "gravity/parallel.hpp"
#include "parc/parc.hpp"
#include "simnet/machine.hpp"
#include "telemetry/report.hpp"
#include "telemetry/sample.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hotlib;

int main() {
  telemetry::Session session("abm");
  std::printf("=== Ablation: LET push vs ABM request-driven traversal ===\n\n");

  const std::size_t n = telemetry::tiny_run() ? 1500 : 20000;
  auto all = gravity::plummer_sphere(n, 1997);
  const auto domain = gravity::fit_domain(all);
  const gravity::TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.35}, .softening = 0.02};
  const auto loki_net = simnet::loki().net;

  TextTable t({"pipeline", "ranks", "interactions", "bytes moved", "messages",
               "host s", "modelled Loki comm s"});

  for (int p : {4, 8}) {
    // LET push.
    {
      WallTimer w;
      std::uint64_t ints = 0, bytes = 0, msgs = 0;
      double vtime = 0;
      const auto stats = parc::Runtime::run(
          p,
          [&](parc::Rank& r) {
            hot::Bodies local;
            for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n;
                 i += static_cast<std::size_t>(p))
              local.append_from(all, i);
            const auto res = gravity::parallel_tree_forces(r, local, domain, cfg);
            const auto total = r.allreduce(res.tally.interactions(), parc::Sum{});
            if (r.rank() == 0) ints = total;
          },
          loki_net);
      bytes = stats.bytes;
      msgs = stats.messages;
      vtime = stats.max_vclock;
      t.add_row({"LET push", TextTable::integer(p),
                 TextTable::integer(static_cast<long long>(ints)),
                 TextTable::integer(static_cast<long long>(bytes)),
                 TextTable::integer(static_cast<long long>(msgs)),
                 TextTable::num(w.seconds(), 2), TextTable::num(vtime, 3)});
    }
    // ABM request-driven.
    {
      WallTimer w;
      std::uint64_t ints = 0, bytes = 0, msgs = 0;
      double vtime = 0;
      std::uint64_t requests = 0, crown = 0;
      const auto stats = parc::Runtime::run(
          p,
          [&](parc::Rank& r) {
            hot::Bodies local;
            for (std::size_t i = static_cast<std::size_t>(r.rank()); i < n;
                 i += static_cast<std::size_t>(p))
              local.append_from(all, i);
            const auto res = gravity::abm_tree_forces(r, local, domain, cfg);
            const auto total = r.allreduce(res.tally.interactions(), parc::Sum{});
            const auto reqs = r.allreduce(res.traversal.requests_sent, parc::Sum{});
            if (r.rank() == 0) {
              ints = total;
              requests = reqs;
              crown = res.traversal.crown_cells;
            }
          },
          loki_net);
      bytes = stats.bytes;
      msgs = stats.messages;
      vtime = stats.max_vclock;
      t.add_row({"ABM requests", TextTable::integer(p),
                 TextTable::integer(static_cast<long long>(ints)),
                 TextTable::integer(static_cast<long long>(bytes)),
                 TextTable::integer(static_cast<long long>(msgs)),
                 TextTable::num(w.seconds(), 2), TextTable::num(vtime, 3)});
      if (p == 8) session.set_modelled_seconds(vtime);
      std::printf("  (p=%d: %llu key requests, %llu replicated crown cells)\n", p,
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(crown));
    }
  }
  std::printf("\n%s\n", t.to_string().c_str());
  telemetry::sample_now();
  std::printf(
      "Shape checks: ABM evaluates fewer interactions (LET applies each imported\n"
      "multipole to every sink of the receiving rank, and walks only the imported\n"
      "bodies per sink group) and both keep message counts tiny relative to the\n"
      "cell traffic thanks to batching; the LET bytes grow with rank count while\n"
      "ABM traffic tracks what traversals actually open.\n");
  return 0;
}
