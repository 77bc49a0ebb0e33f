// hotlib-serve — operator CLI for the simulation serving layer.
//
//   hotlib-serve demo [flags]   start a service, run one of every query
//                               kind against a live stepping simulation,
//                               steer it, and print the results
//   hotlib-serve top [flags]    live introspection: background load against
//                               an auto-stepping service, scraped over
//                               kMetricsRequest every refresh interval
//                               (per-tenant p50/p99, exact flop counters,
//                               slow-query ring), then a final Prometheus
//                               text dump
//
// flags (all optional, --key=value):
//   --bodies=N       bodies per simulation          (default 512)
//   --sims=N         number of live simulations     (default 2)
//   --tenants=N      top: concurrent tenants        (default 2)
//   --seed=N         base RNG seed for the clouds   (default 11)
//   --frames=N       top: refresh frames to render  (default 5)
//   --interval-ms=N  top: delay between scrapes     (default 400)
//
// Everything runs in-process: the CLI is the same SimulationService +
// Client pair the tests and bench_serve use, so it doubles as a quick
// smoke check that the serving layer behaves on a given machine.
//
// Exit status: 0 clean, 1 a query failed, 2 usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "hot/spatial.hpp"
#include "metrics_text.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace hotlib;

namespace {

struct Options {
  std::size_t bodies = 512;
  std::size_t sims = 2;
  std::size_t tenants = 2;
  std::uint64_t seed = 11;
  std::size_t frames = 5;
  std::size_t interval_ms = 400;
};

int usage() {
  std::fprintf(stderr,
               "usage: hotlib-serve demo [--bodies=N] [--sims=N] [--seed=N]\n"
               "       hotlib-serve top  [--bodies=N] [--sims=N] [--tenants=N]"
               " [--frames=N] [--interval-ms=N]\n");
  return 2;
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string::npos) return false;
    const std::string flag = arg.substr(0, eq);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(arg.c_str() + eq + 1, &end, 10);
    if (end == arg.c_str() + eq + 1 || *end != '\0' || v == 0) return false;
    if (flag == "--bodies") opt.bodies = v;
    else if (flag == "--sims") opt.sims = v;
    else if (flag == "--tenants") opt.tenants = v;
    else if (flag == "--seed") opt.seed = v;
    else if (flag == "--frames") opt.frames = v;
    else if (flag == "--interval-ms") opt.interval_ms = v;
    else return false;
  }
  return true;
}

serve::SimulationService::Config service_config(const Options& opt) {
  serve::SimulationService::Config cfg;
  for (std::size_t s = 0; s < opt.sims; ++s) {
    serve::SimInstance::Config sc;
    sc.seed = opt.seed + s;
    sc.nbodies = opt.bodies;
    cfg.sims.push_back(sc);
  }
  return cfg;
}

int run_demo(const Options& opt) {
  serve::SimulationService svc(service_config(opt));
  svc.start();
  std::printf("service up: %zu sims x %zu bodies, stepping live\n\n", svc.nsims(),
              opt.bodies);

  serve::Client cl(svc, /*tenant=*/1);
  const auto hello = cl.hello();
  if (!hello) {
    std::fprintf(stderr, "hotlib-serve: handshake failed\n");
    return 1;
  }
  std::printf("hello: protocol v%u, %u sims\n", hello->protocol, hello->nsims);

  // Point field probe along the x axis.
  std::vector<Vec3d> pts;
  for (int i = 0; i < 4; ++i) pts.push_back({0.25 * (i + 1), 0.0, 0.0});
  const auto field = cl.point_query(0, pts);
  if (!field) {
    std::fprintf(stderr, "hotlib-serve: point query failed\n");
    return 1;
  }
  TextTable ft({"x", "ax", "ay", "az", "potential"});
  for (std::size_t i = 0; i < pts.size(); ++i)
    ft.add_row({TextTable::num(pts[i].x, 2), TextTable::num(field->acc[i].x, 4),
                TextTable::num(field->acc[i].y, 4), TextTable::num(field->acc[i].z, 4),
                TextTable::num(field->pot[i], 4)});
  std::printf("\nfield at step %llu:\n%s\n",
              static_cast<unsigned long long>(field->step), ft.to_string().c_str());

  // Region census of the core, then the 8 nearest bodies to the origin.
  const hot::Aabb core{{-0.25, -0.25, -0.25}, {0.25, 0.25, 0.25}};
  const auto region = cl.region_query(0, core, 8);
  if (!region) {
    std::fprintf(stderr, "hotlib-serve: region query failed\n");
    return 1;
  }
  std::printf("core region [-0.25,0.25]^3 at step %llu: %u bodies (showing %zu)\n",
              static_cast<unsigned long long>(region->step), region->total_matches,
              region->particles.size());
  const auto nn = cl.knn_query(0, {0, 0, 0}, 8);
  if (!nn) {
    std::fprintf(stderr, "hotlib-serve: knn query failed\n");
    return 1;
  }
  TextTable nt({"id", "distance", "x", "y", "z"});
  for (const serve::NeighborRecord& r : nn->neighbors)
    nt.add_row({TextTable::integer(static_cast<long long>(r.id)),
                TextTable::num(std::sqrt(r.dist2), 4), TextTable::num(r.pos.x, 3),
                TextTable::num(r.pos.y, 3), TextTable::num(r.pos.z, 3)});
  std::printf("\n8 nearest bodies to the origin:\n%s\n", nt.to_string().c_str());

  // Steer: halve the timestep; takes effect at the next step boundary.
  const auto steer = cl.steer(0, 5e-4, 0.0, 0.0);
  if (!steer) {
    std::fprintf(stderr, "hotlib-serve: steer failed\n");
    return 1;
  }
  std::printf("steered sim 0: dt=%g theta=%g softening=%g from step %llu\n", steer->dt,
              steer->theta, steer->softening,
              static_cast<unsigned long long>(steer->effective_step));

  const auto snap = cl.snapshot(0);
  if (!snap) {
    std::fprintf(stderr, "hotlib-serve: snapshot failed\n");
    return 1;
  }
  std::printf("snapshot at step %llu (t=%.4f): %zu particles streamed\n",
              static_cast<unsigned long long>(snap->step), snap->time,
              snap->particles.size());

  const auto stats = cl.stats();
  if (!stats) {
    std::fprintf(stderr, "hotlib-serve: stats failed\n");
    return 1;
  }
  std::printf("\ntenant 1: %llu queries, p99 %.1f us; service stepped %llu times\n",
              static_cast<unsigned long long>(stats->queries),
              stats->p99_query_latency_us,
              static_cast<unsigned long long>(stats->steps));
  svc.stop();
  return 0;
}

// Live introspection loop: an auto-stepping service under background mixed
// load, scraped over the wire every interval while it runs. Each frame shows
// the whole-service counters (exact paper flop accounting), per-tenant tail
// latency and the current slow-query ring; exits with a Prometheus text dump
// of the final scrape.
int run_top(const Options& opt) {
  // Enable telemetry by hand (no Session: a CLI should not drop BENCH_*.json
  // files in the working directory).
  telemetry::Registry::instance().reset();
  telemetry::set_enabled(true);
  telemetry::attach_rank(0);

  serve::SimulationService::Config cfg = service_config(opt);
  cfg.trace_sample_rate = 0.01;  // keep the tracing plane exercised
  serve::SimulationService svc(std::move(cfg));
  svc.start();
  std::printf("service up: %zu sims x %zu bodies, stepping live; %zu load tenants\n",
              svc.nsims(), opt.bodies, opt.tenants);
  std::printf("scraping every %zu ms x %zu frames\n\n", opt.interval_ms, opt.frames);

  // Background closed-loop load, running until the scrape loop finishes.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<bool> failed(opt.tenants, false);
  for (std::size_t t = 0; t < opt.tenants; ++t)
    threads.emplace_back([&, t] {
      serve::Client cl(svc, static_cast<std::uint32_t>(t + 1));
      if (!cl.hello()) {
        failed[t] = true;
        return;
      }
      Xoshiro256ss rng(0x70bULL + t);
      const auto sim = static_cast<std::uint32_t>(t % svc.nsims());
      std::vector<Vec3d> pts(4);
      while (!stop.load(std::memory_order_acquire)) {
        const double r = rng.uniform();
        bool ok = false;
        do {
          if (r < 0.7) {
            for (auto& p : pts) p = rng.in_sphere(1.2);
            ok = cl.point_query(sim, pts).has_value();
          } else if (r < 0.85) {
            const Vec3d c = rng.in_sphere(0.8);
            ok = cl.knn_query(sim, c, 8).has_value();
          } else {
            const Vec3d c = rng.in_sphere(0.8);
            const hot::Aabb box{{c.x - 0.2, c.y - 0.2, c.z - 0.2},
                                {c.x + 0.2, c.y + 0.2, c.z + 0.2}};
            ok = cl.region_query(sim, box, 64).has_value();
          }
        } while (!ok && cl.last_error_was_busy() &&
                 !stop.load(std::memory_order_acquire));
        if (!ok && !cl.last_error_was_busy()) {
          failed[t] = true;
          return;
        }
      }
    });

  // The scrape client: pure control plane, works even when query quotas are
  // saturated because kMetricsRequest is answered inline by the pump.
  serve::Client scraper(svc, /*tenant=*/9000);
  std::optional<serve::MetricsSnapshot> last;
  bool scrape_failed = false;
  for (std::size_t frame = 0; frame < opt.frames; ++frame) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    const auto m = scraper.metrics();
    if (!m) {
      scrape_failed = true;
      break;
    }
    std::printf("-- frame %zu/%zu: uptime %.1f s, step %llu, %llu queries, "
                "%llu interactions (%.3f Gflop)\n",
                frame + 1, opt.frames, m->head.uptime_s,
                static_cast<unsigned long long>(m->head.steps),
                static_cast<unsigned long long>(m->head.queries_executed),
                static_cast<unsigned long long>(m->interactions()),
                m->flops() / 1e9);
    TextTable table({"tenant", "queries", "rejected", "p50 us", "p99 us", "max us"});
    for (const serve::TenantMetricsRecord& t : m->tenants)
      table.add_row({TextTable::integer(static_cast<long long>(t.tenant)),
                     TextTable::integer(static_cast<long long>(t.queries)),
                     TextTable::integer(static_cast<long long>(t.rejected)),
                     TextTable::num(t.p50_query_latency_us, 1),
                     TextTable::num(t.p99_query_latency_us, 1),
                     TextTable::num(t.max_query_latency_us, 1)});
    std::printf("%s", table.to_string().c_str());
    std::printf("slow-query ring (%zu worst):\n%s\n", m->slow.size(),
                tools::slow_query_table(*m).c_str());
    last = m;
  }

  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  svc.stop();
  telemetry::set_enabled(false);
  telemetry::detach_rank();

  bool any_failed = scrape_failed;
  for (std::size_t t = 0; t < opt.tenants; ++t) any_failed = any_failed || failed[t];
  if (!last || any_failed) {
    std::fprintf(stderr, "hotlib-serve: %s\n",
                 scrape_failed ? "metrics scrape failed" : "a load client failed");
    return 1;
  }
  std::printf("== final scrape, Prometheus text exposition ==\n%s",
              tools::prometheus_text(*last).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options opt;
  if (!parse_options(argc - 2, argv + 2, opt)) return usage();
  if (mode == "demo") return run_demo(opt);
  if (mode == "top") return run_top(opt);
  return usage();
}
