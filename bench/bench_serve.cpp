// bench_serve — YCSB-style load generator for the serving layer.
//
// A SimulationService hosts two live simulations; one closed-loop client
// thread per tenant replays a deterministic mixed query stream against them
// (point-field batches, region scans, k-NN lookups, snapshot streams, and
// steering calls) while the harness advances the simulations a fixed number
// of steps, paced so stepping overlaps the whole query window. The headline
// quantity is per-tenant tail latency: each tenant's p50/p99/max
// admission-to-reply query latency comes from the service's TenantSession
// and is exported as a report metric (host-timed, so the perf gate only
// requires it present and finite).
//
// The replay runs twice: phase A with request tracing off (the headline
// numbers), then a shorter phase B with clients sampling 1% of requests into
// the distributed-trace plane. Phase B exports traced_queries_per_s and
// prints its throughput delta against phase A: the cost of 1%-sampled
// request tracing (design target <= 2% on a quiet machine). Phase A also
// dumps the service's slow-query log at shutdown, the same worst-K ring a
// live operator scrapes over kMetricsRequest.
//
// Determinism contract (what the perf-gate baseline relies on): the query
// mix is a pure function of the per-client RNG seed, every client runs a
// fixed op count, steering re-applies the configured parameters (so the
// trajectory — and with it every tree build and force tally of the stepping
// plane — is bit-identical run to run), and the step count is fixed. The
// only run-to-run variance is *which* published step each query happens to
// see, so the query-side interaction tallies are banded, not exact, in the
// gate (see the --tol overrides in bench/CMakeLists.txt).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "hot/spatial.hpp"
#include "metrics_text.hpp"
#include "serve/client.hpp"
#include "serve/introspect.hpp"
#include "serve/service.hpp"
#include "telemetry/report.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hotlib;

namespace {

struct LoadConfig {
  std::size_t tenants = 4;
  std::size_t ops_per_client = 260'000;  // >= 1M mixed queries total
  std::uint64_t steps = 400;             // fixed: spread across the run
  std::size_t nbodies = 2048;
  std::size_t point_batch = 4;
  double theta = 0.6;
  double softening = 0.02;
  double dt = 1e-3;
};

struct ClientTotals {
  std::uint64_t point = 0, region = 0, knn = 0, snapshot = 0, steer = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t bodies_seen = 0;  // region/knn/snapshot records received
  double acc_sum = 0.0;           // keeps the replies observably used
  bool failed = false;

  std::uint64_t queries() const { return point + region + knn + snapshot; }
};

// One closed-loop client: a deterministic op mix (~70% point batches, 12%
// region, 12% knn, 3% snapshot, 3% steer), one request in flight, retry on
// kBusy. RNG draws happen once per op — retries replay the same request —
// so the stream is identical run to run. When trace_rate > 0 the client
// head-samples that fraction of requests into the distributed-trace plane
// (its own RNG stream; the query mix above is untouched).
ClientTotals run_client(serve::SimulationService& svc, std::uint32_t tenant,
                        std::uint32_t nsims, const LoadConfig& lc,
                        double trace_rate) {
  ClientTotals out;
  serve::Client cl(svc, tenant);
  if (trace_rate > 0.0) cl.enable_tracing(trace_rate, 0xace1ULL + tenant);
  if (!cl.hello()) {
    out.failed = true;
    return out;
  }
  Xoshiro256ss rng(0x5e47e5ULL + 1000 * tenant);
  const std::uint32_t sim = tenant % nsims;
  std::vector<Vec3d> pts(lc.point_batch);
  for (std::size_t op = 0; op < lc.ops_per_client; ++op) {
    const double r = rng.uniform();
    if (r < 0.70) {
      for (auto& p : pts) p = rng.in_sphere(1.2);
      ++out.point;
      for (;;) {
        if (auto res = cl.point_query(sim, pts)) {
          for (const Vec3d& a : res->acc) out.acc_sum += a.x + a.y + a.z;
          break;
        }
        if (!cl.last_error_was_busy()) { out.failed = true; return out; }
        ++out.busy_retries;
      }
    } else if (r < 0.82) {
      const Vec3d c = rng.in_sphere(0.8);
      const double h = rng.uniform(0.05, 0.4);
      const hot::Aabb box{{c.x - h, c.y - h, c.z - h}, {c.x + h, c.y + h, c.z + h}};
      ++out.region;
      for (;;) {
        if (auto res = cl.region_query(sim, box, 256)) {
          out.bodies_seen += res->particles.size();
          break;
        }
        if (!cl.last_error_was_busy()) { out.failed = true; return out; }
        ++out.busy_retries;
      }
    } else if (r < 0.94) {
      const Vec3d p = rng.in_sphere(1.0);
      ++out.knn;
      for (;;) {
        if (auto res = cl.knn_query(sim, p, 8)) {
          out.bodies_seen += res->neighbors.size();
          break;
        }
        if (!cl.last_error_was_busy()) { out.failed = true; return out; }
        ++out.busy_retries;
      }
    } else if (r < 0.97) {
      ++out.snapshot;
      for (;;) {
        if (auto res = cl.snapshot(sim)) {
          out.bodies_seen += res->particles.size();
          break;
        }
        if (!cl.last_error_was_busy()) { out.failed = true; return out; }
        ++out.busy_retries;
      }
    } else {
      // Steering exercises the control plane; re-applying the configured
      // values keeps the trajectory bit-deterministic (see header comment).
      ++out.steer;
      if (!cl.steer(sim, lc.dt, lc.theta, lc.softening)) {
        out.failed = true;
        return out;
      }
    }
  }
  if (!cl.stats()) out.failed = true;
  return out;
}

struct PhaseOut {
  std::uint64_t queries = 0, busy = 0, bodies_seen = 0;
  double acc_sum = 0.0, secs = 0.0, qps = 0.0;
  std::uint32_t nsims = 0;
  bool failed = false;
  std::vector<serve::StatsReplyPayload> stats;  // per tenant, index = tenant-1
  std::vector<std::uint64_t> tenant_busy;       // busy retries, same index
  serve::MetricsSnapshot metrics;               // end-of-run introspection scrape
};

// One full replay against a fresh service. Keeping service construction
// inside the phase makes A and B independent measurements: each sees the
// same cold trees, the same fixed step count, the same query stream.
PhaseOut run_phase(const LoadConfig& lc, double trace_rate) {
  PhaseOut out;

  serve::SimulationService::Config cfg;
  cfg.auto_step = false;  // the harness paces a fixed step count below
  for (std::uint64_t s = 0; s < 2; ++s) {
    serve::SimInstance::Config sc;
    sc.seed = 11 + s;
    sc.nbodies = lc.nbodies;
    sc.dt = lc.dt;
    sc.theta = lc.theta;
    sc.softening = lc.softening;
    cfg.sims.push_back(sc);
  }
  serve::SimulationService svc(std::move(cfg));
  out.nsims = static_cast<std::uint32_t>(svc.nsims());
  const std::uint64_t total_ops = lc.tenants * lc.ops_per_client;

  WallTimer wall;
  svc.start();

  // Stepping plane: exactly lc.steps steps per sim, paced by query progress
  // so the simulations are live for the whole replay (on any machine speed),
  // while the step count — and hence the stepping-side flop accounting —
  // stays fixed.
  std::atomic<bool> clients_done{false};
  std::thread stepper([&] {
    telemetry::RankScope scope(1);
    for (std::uint64_t k = 0; k < lc.steps; ++k) {
      const std::uint64_t due = k * total_ops / lc.steps;
      while (svc.queries_executed() < due &&
             !clients_done.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      svc.step_all();
    }
  });

  std::vector<std::thread> threads;
  std::vector<ClientTotals> totals(lc.tenants);
  for (std::size_t t = 0; t < lc.tenants; ++t)
    threads.emplace_back([&, t] {
      totals[t] = run_client(svc, static_cast<std::uint32_t>(t + 1),
                             out.nsims, lc, trace_rate);
    });
  for (auto& th : threads) th.join();
  clients_done.store(true, std::memory_order_release);
  stepper.join();
  svc.stop();
  out.secs = wall.seconds();
  out.metrics = svc.metrics();  // quiescent scrape: slow-query ring + gauges

  for (std::size_t t = 0; t < lc.tenants; ++t) {
    const auto tid = static_cast<std::uint32_t>(t + 1);
    const serve::StatsReplyPayload st = svc.tenant_stats(tid);
    const ClientTotals& ct = totals[t];
    out.failed = out.failed || ct.failed || st.queries != ct.queries();
    out.queries += st.queries;
    out.busy += ct.busy_retries;
    out.bodies_seen += ct.bodies_seen;
    out.acc_sum += ct.acc_sum;
    out.stats.push_back(st);
    out.tenant_busy.push_back(ct.busy_retries);
  }
  out.qps = out.secs > 0 ? static_cast<double>(out.queries) / out.secs : 0.0;
  return out;
}

}  // namespace

int main() {
  telemetry::Session session("serve");
  std::printf("=== serving layer: concurrent mixed queries against live simulations ===\n\n");

  LoadConfig lc;
  if (telemetry::tiny_run()) {
    lc.tenants = 2;
    lc.ops_per_client = 2000;
    lc.steps = 12;
    lc.nbodies = 256;
  }

  std::printf("phase A (tracing off): 2 sims x %zu bodies, %zu tenants x %zu ops "
              "(%llu total), %llu steps\n\n",
              lc.nbodies, lc.tenants, lc.ops_per_client,
              static_cast<unsigned long long>(lc.tenants * lc.ops_per_client),
              static_cast<unsigned long long>(lc.steps));
  const PhaseOut a = run_phase(lc, 0.0);

  TextTable table({"tenant", "queries", "busy", "p50 us", "p99 us", "max us"});
  for (std::size_t t = 0; t < a.stats.size(); ++t) {
    const auto tid = static_cast<std::uint32_t>(t + 1);
    const serve::StatsReplyPayload& st = a.stats[t];
    table.add_row({TextTable::integer(tid),
                   TextTable::integer(static_cast<long long>(st.queries)),
                   TextTable::integer(static_cast<long long>(a.tenant_busy[t])),
                   TextTable::num(st.p50_query_latency_us, 1),
                   TextTable::num(st.p99_query_latency_us, 1),
                   TextTable::num(st.max_query_latency_us, 1)});
    char key[64];
    std::snprintf(key, sizeof(key), "tenant%u_p50_query_latency_us", tid);
    session.metric(key, st.p50_query_latency_us);
    std::snprintf(key, sizeof(key), "tenant%u_p99_query_latency_us", tid);
    session.metric(key, st.p99_query_latency_us);
    std::snprintf(key, sizeof(key), "tenant%u_queries", tid);
    session.metric(key, static_cast<double>(st.queries));
  }
  std::printf("Per-tenant admission-to-reply latency:\n%s\n", table.to_string().c_str());
  std::printf("  %llu queries in %.2f s => %.0f queries/s (+%llu busy retries, "
              "%llu records streamed, acc checksum %.3e)\n\n",
              static_cast<unsigned long long>(a.queries), a.secs, a.qps,
              static_cast<unsigned long long>(a.busy),
              static_cast<unsigned long long>(a.bodies_seen), a.acc_sum);

  // Slow-query log at shutdown: the same worst-K ring an operator scrapes
  // live over kMetricsRequest (see tools/hotlib_serve.cpp `top`).
  std::printf("Slow-query log (worst admission-to-reply requests):\n%s\n",
              tools::slow_query_table(a.metrics).c_str());
  session.metric("slowlog_entries", static_cast<double>(a.metrics.slow.size()));

  // Phase B: same mix, quarter length, clients head-sampling 1% of requests
  // into the trace plane. Shorter is fine — the phase only measures traced
  // throughput, not the latency percentiles.
  LoadConfig lb = lc;
  lb.ops_per_client = std::max<std::size_t>(lc.ops_per_client / 4, 200);
  lb.steps = std::max<std::uint64_t>(lc.steps / 4, 3);
  std::printf("phase B (1%% trace sampling): %zu tenants x %zu ops, %llu steps\n",
              lb.tenants, lb.ops_per_client,
              static_cast<unsigned long long>(lb.steps));
  const PhaseOut b = run_phase(lb, 0.01);
  const double overhead =
      a.qps > 0 ? std::max(0.0, (a.qps - b.qps) / a.qps * 100.0) : 0.0;
  std::printf("  %llu queries in %.2f s => %.0f queries/s traced\n"
              "  tracing overhead at 1%% sampling: %.2f%% of throughput "
              "(design target <= 2%% on a quiet machine)\n\n",
              static_cast<unsigned long long>(b.queries), b.secs, b.qps,
              overhead);

  session.metric("queries_per_s", a.qps);
  session.metric("traced_queries_per_s", b.qps);
  session.metric("sim_steps", static_cast<double>((lc.steps + lb.steps) * a.nsims));
  session.metric("busy_retries", static_cast<double>(a.busy + b.busy));
  telemetry::sample_now();

  if (a.failed || b.failed) {
    std::fprintf(stderr, "bench_serve: a client failed or stats diverged\n");
    return 1;
  }
  return 0;
}
