// Concurrent serving tests (TSan-labeled): multiple client threads query a
// SimulationService while a harness thread steps the simulations, and every
// reply must be bit-identical to a quiesced evaluation of the same query at
// the same step. The service's immutable published TreeState makes this
// possible: a query's result is a pure function of (state, query), so a
// *twin* SimInstance with the same Config — whose trajectory is bit-exact by
// the determinism guarantees of the tree build and traversal — replays any
// recorded reply after the fact. Scheduling may change *which* step a query
// sees, never *what* the answer at that step is.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <thread>
#include <vector>

#include "gravity/evaluate.hpp"
#include "hot/spatial.hpp"
#include "serve/client.hpp"
#include "serve/introspect.hpp"
#include "serve/service.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace hotlib::serve {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool same_bits(const Vec3d& a, const Vec3d& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

constexpr std::size_t kBodies = 160;
constexpr std::uint64_t kSeed = 4242;
constexpr std::uint64_t kSteps = 24;

SimInstance::Config sim_config() {
  SimInstance::Config sc;
  sc.seed = kSeed;
  sc.nbodies = kBodies;
  return sc;
}

// What one client remembers about each reply, enough to replay it quiesced.
struct RecordedPoint {
  std::uint64_t step = 0;
  std::vector<Vec3d> points;
  std::vector<Vec3d> acc;
  std::vector<double> pot;
};
struct RecordedRegion {
  std::uint64_t step = 0;
  hot::Aabb box{};
  std::uint32_t total_matches = 0;
  std::vector<ParticleRecord> particles;
};
struct RecordedKnn {
  std::uint64_t step = 0;
  Vec3d point{};
  std::vector<NeighborRecord> neighbors;
};

struct ClientLog {
  std::vector<RecordedPoint> points;
  std::vector<RecordedRegion> regions;
  std::vector<RecordedKnn> knns;
  bool failed = false;
};

void run_client(SimulationService& svc, std::uint32_t tenant, std::size_t ops,
                ClientLog& log) {
  Client cl(svc, tenant);
  if (!cl.hello()) {
    log.failed = true;
    return;
  }
  Xoshiro256ss rng(0xfeed + tenant);
  for (std::size_t op = 0; op < ops; ++op) {
    const double r = rng.uniform();
    if (r < 0.5) {
      std::vector<Vec3d> pts(3);
      for (auto& p : pts) p = rng.in_sphere(1.3);
      const auto res = cl.point_query(0, pts);
      if (!res) {
        log.failed = true;
        return;
      }
      log.points.push_back({res->step, std::move(pts), res->acc, res->pot});
    } else if (r < 0.75) {
      const Vec3d c = rng.in_sphere(0.7);
      const hot::Aabb box{{c.x - 0.3, c.y - 0.3, c.z - 0.3},
                          {c.x + 0.3, c.y + 0.3, c.z + 0.3}};
      const auto res = cl.region_query(0, box);
      if (!res) {
        log.failed = true;
        return;
      }
      log.regions.push_back({res->step, box, res->total_matches, res->particles});
    } else {
      const Vec3d c = rng.in_sphere(1.0);
      const auto res = cl.knn_query(0, c, 6);
      if (!res) {
        log.failed = true;
        return;
      }
      log.knns.push_back({res->step, c, res->neighbors});
    }
  }
}

TEST(ServeConcurrent, LiveQueriesBitExactAgainstQuiescedTwinReplay) {
  // The twin's trajectory, captured quiesced up front: states[k] is the
  // published state after k steps. Bit-exact to what the service publishes.
  SimInstance twin(sim_config());
  std::vector<std::shared_ptr<const TreeState>> states;
  states.push_back(twin.state());
  for (std::uint64_t k = 0; k < kSteps; ++k) {
    twin.step();
    states.push_back(twin.state());
  }

  SimulationService::Config cfg;
  cfg.sims.push_back(sim_config());
  cfg.auto_step = false;  // the harness thread below paces the stepping
  SimulationService svc(std::move(cfg));
  svc.start();

  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kOps = 120;
  std::atomic<bool> clients_done{false};

  // Stepping plane: advance the live simulation kSteps times, paced so the
  // steps interleave with the query stream instead of finishing first.
  std::thread stepper([&] {
    const std::uint64_t total = kTenants * kOps;
    for (std::uint64_t k = 1; k <= kSteps; ++k) {
      const std::uint64_t due = (k - 1) * total / kSteps;
      while (svc.queries_executed() < due &&
             !clients_done.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      svc.step_all();
    }
  });

  std::vector<ClientLog> logs(kTenants);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kTenants; ++t)
    clients.emplace_back([&, t] {
      run_client(svc, static_cast<std::uint32_t>(t + 1), kOps, logs[t]);
    });
  for (auto& th : clients) th.join();
  clients_done.store(true, std::memory_order_release);
  stepper.join();
  svc.stop();

  // Replay every recorded reply against the twin state for its step.
  std::size_t points_checked = 0, regions_checked = 0, knns_checked = 0;
  std::uint64_t max_step_seen = 0;
  for (const ClientLog& log : logs) {
    ASSERT_FALSE(log.failed);
    for (const RecordedPoint& rp : log.points) {
      ASSERT_LE(rp.step, kSteps);
      max_step_seen = std::max(max_step_seen, rp.step);
      const TreeState& s = *states[rp.step];
      std::vector<Vec3d> acc(rp.points.size());
      std::vector<double> pot(rp.points.size());
      gravity::evaluate_at(s.tree, s.pos, s.mass, s.fcfg, rp.points, acc, pot);
      for (std::size_t i = 0; i < rp.points.size(); ++i) {
        ASSERT_TRUE(same_bits(rp.acc[i], acc[i])) << "step " << rp.step;
        ASSERT_TRUE(same_bits(rp.pot[i], pot[i])) << "step " << rp.step;
      }
      ++points_checked;
    }
    for (const RecordedRegion& rr : log.regions) {
      ASSERT_LE(rr.step, kSteps);
      max_step_seen = std::max(max_step_seen, rr.step);
      const TreeState& s = *states[rr.step];
      std::vector<std::uint64_t> want;
      for (std::size_t i = 0; i < s.pos.size(); ++i)
        if (rr.box.contains(s.pos[i])) want.push_back(s.id[i]);
      ASSERT_EQ(rr.total_matches, want.size()) << "step " << rr.step;
      ASSERT_EQ(rr.particles.size(), want.size());
      std::vector<std::uint64_t> got;
      for (const ParticleRecord& r : rr.particles) {
        got.push_back(r.id);
        // Positions must come from exactly this step's state, bitwise.
        const auto it = std::find(s.id.begin(), s.id.end(), r.id);
        ASSERT_NE(it, s.id.end());
        const auto i = static_cast<std::size_t>(it - s.id.begin());
        ASSERT_TRUE(same_bits(r.pos, s.pos[i])) << "step " << rr.step;
        ASSERT_TRUE(same_bits(r.vel, s.vel[i])) << "step " << rr.step;
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "step " << rr.step;
      ++regions_checked;
    }
    for (const RecordedKnn& rk : log.knns) {
      ASSERT_LE(rk.step, kSteps);
      max_step_seen = std::max(max_step_seen, rk.step);
      const TreeState& s = *states[rk.step];
      std::vector<std::pair<double, std::uint64_t>> want;
      for (std::size_t i = 0; i < s.pos.size(); ++i)
        want.emplace_back(norm2(s.pos[i] - rk.point), s.id[i]);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(rk.neighbors.size(), 6u);
      for (std::size_t i = 0; i < rk.neighbors.size(); ++i) {
        ASSERT_EQ(rk.neighbors[i].id, want[i].second) << "step " << rk.step;
        ASSERT_TRUE(same_bits(rk.neighbors[i].dist2, want[i].first))
            << "step " << rk.step;
      }
      ++knns_checked;
    }
  }
  EXPECT_GT(points_checked, 0u);
  EXPECT_GT(regions_checked, 0u);
  EXPECT_GT(knns_checked, 0u);
  // The pacing interleaved queries with stepping: replies were served from a
  // moving simulation, not a single frozen state.
  EXPECT_GT(max_step_seen, 1u);
  EXPECT_EQ(svc.sim(0).steps_done(), kSteps);
}

// Auto-stepping smoke: with the service's own stepping thread running, every
// tenant makes progress concurrently, stats reflect the load, and snapshots
// remain internally consistent (one step, all bodies, no torn reads).
TEST(ServeConcurrent, AutoSteppingServiceServesAllTenants) {
  SimulationService::Config cfg;
  cfg.sims.push_back(sim_config());
  cfg.auto_step = true;
  SimulationService svc(std::move(cfg));
  svc.start();

  constexpr std::size_t kTenants = 3;
  std::vector<std::atomic<bool>> ok(kTenants);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kTenants; ++t)
    clients.emplace_back([&, t] {
      Client cl(svc, static_cast<std::uint32_t>(t + 1));
      if (!cl.hello()) return;
      Xoshiro256ss rng(7 + t);
      for (int op = 0; op < 60; ++op) {
        const auto snap = cl.snapshot(0, /*chunk_bodies=*/64);
        if (!snap || snap->particles.size() != kBodies) return;
        std::vector<Vec3d> pts(2);
        for (auto& p : pts) p = rng.in_sphere(1.0);
        if (!cl.point_query(0, pts)) return;
      }
      const auto stats = cl.stats();
      if (!stats || stats->queries != 120) return;
      ok[t].store(true, std::memory_order_release);
    });
  for (auto& th : clients) th.join();
  svc.stop();
  for (std::size_t t = 0; t < kTenants; ++t)
    EXPECT_TRUE(ok[t].load(std::memory_order_acquire)) << "tenant " << (t + 1);
  // The stepping thread actually ran while we were querying.
  EXPECT_GT(svc.sim(0).steps_done(), 0u);
}

// Introspection plane under load: a scraper thread hammers kMetricsRequest
// while clients query, the harness steps, and telemetry counters/gauges are
// being written from the stepping and worker threads — exactly the writers
// the lock-free snapshot paths (atomic counters, seqlock gauges) race
// against. Every scrape must be internally consistent and monotone, the
// final scrape must converge to the exact totals, and the data plane must
// stay bit-exact against the quiesced twin replay despite the scrapes.
TEST(ServeConcurrent, MetricsScrapeUnderLoadIsMonotoneAndNonPerturbing) {
  telemetry::set_enabled(true);
  telemetry::Registry::instance().reset();

  SimInstance twin(sim_config());
  std::vector<std::shared_ptr<const TreeState>> states;
  states.push_back(twin.state());
  for (std::uint64_t k = 0; k < kSteps; ++k) {
    twin.step();
    states.push_back(twin.state());
  }

  SimulationService::Config cfg;
  cfg.sims.push_back(sim_config());
  cfg.auto_step = false;
  cfg.trace_sample_rate = 0.05;  // the trace plane races the scrapes too
  SimulationService svc(std::move(cfg));
  svc.start();

  constexpr std::size_t kTenants = 2;
  constexpr std::size_t kOps = 100;
  std::atomic<bool> done{false};

  std::thread stepper([&] {
    telemetry::RankScope scope(1);  // live counter/gauge writer under scrape
    const std::uint64_t total = kTenants * kOps;
    for (std::uint64_t k = 1; k <= kSteps; ++k) {
      const std::uint64_t due = (k - 1) * total / kSteps;
      while (svc.queries_executed() < due && !done.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      svc.step_all();
    }
  });

  // Scraper: monotone lifetime counters, sorted slow log, sane tenants.
  std::atomic<std::uint64_t> scrapes{0}, scrape_violations{0};
  std::thread scraper([&] {
    Client scr(svc, 9000);
    std::uint64_t prev_queries = 0, prev_inter = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto m = scr.metrics();
      if (!m) {
        ++scrape_violations;
        break;
      }
      if (m->head.queries_executed < prev_queries) ++scrape_violations;
      if (m->interactions() < prev_inter) ++scrape_violations;
      prev_queries = m->head.queries_executed;
      prev_inter = m->interactions();
      for (std::size_t i = 1; i < m->slow.size(); ++i)
        if (m->slow[i].total_us > m->slow[i - 1].total_us) ++scrape_violations;
      for (const TenantMetricsRecord& t : m->tenants)
        if (t.tenant == 0 || t.tenant > kTenants + 1) ++scrape_violations;
      ++scrapes;
    }
  });

  std::vector<ClientLog> logs(kTenants);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kTenants; ++t)
    clients.emplace_back([&, t] {
      run_client(svc, static_cast<std::uint32_t>(t + 1), kOps, logs[t]);
    });
  for (auto& th : clients) th.join();
  done.store(true, std::memory_order_release);
  stepper.join();
  scraper.join();
  svc.stop();

  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(scrape_violations.load(), 0u);

  // Quiesced final scrape: exact convergence of the lifetime totals.
  const MetricsSnapshot fin = svc.metrics();
  EXPECT_EQ(fin.head.queries_executed, kTenants * kOps);
  std::uint64_t tenant_queries = 0;
  for (const TenantMetricsRecord& t : fin.tenants)
    if (t.tenant >= 1 && t.tenant <= kTenants) tenant_queries += t.queries;
  EXPECT_EQ(tenant_queries, kTenants * kOps);
  EXPECT_FALSE(fin.slow.empty());

  // The data plane never flinched: every recorded point reply replays
  // bit-exactly against the twin, scrapes or no scrapes.
  std::size_t points_checked = 0;
  for (const ClientLog& log : logs) {
    ASSERT_FALSE(log.failed);
    for (const RecordedPoint& rp : log.points) {
      ASSERT_LE(rp.step, kSteps);
      const TreeState& s = *states[rp.step];
      std::vector<Vec3d> acc(rp.points.size());
      std::vector<double> pot(rp.points.size());
      gravity::evaluate_at(s.tree, s.pos, s.mass, s.fcfg, rp.points, acc, pot);
      for (std::size_t i = 0; i < rp.points.size(); ++i) {
        ASSERT_TRUE(same_bits(rp.acc[i], acc[i])) << "step " << rp.step;
        ASSERT_TRUE(same_bits(rp.pot[i], pot[i])) << "step " << rp.step;
      }
      ++points_checked;
    }
  }
  EXPECT_GT(points_checked, 0u);

  telemetry::set_enabled(false);
  telemetry::Registry::instance().reset();
}

// An idle pump lends itself to the global pool. The pool's only worker is
// held on a latch and this thread does not wait on the group, so nobody but
// the pump can run the second queued task; the lent-task gauge in the
// metrics snapshot records it.
TEST(ServeConcurrent, IdlePumpLendsItselfToThePool) {
  util::TaskPool::set_global_concurrency(2);  // the service is not running yet
  SimulationService::Config cfg;
  cfg.auto_step = false;
  cfg.sims.push_back(sim_config());
  SimulationService svc(cfg);
  util::TaskPool& pool = util::TaskPool::global();
  std::latch worker_held(1), release(1);
  std::promise<std::thread::id> lent;
  std::future<std::thread::id> ran_on = lent.get_future();
  util::TaskPool::Group g(pool);
  g.spawn([&] {
    worker_held.count_down();
    release.wait();
  });
  worker_held.wait();
  g.spawn([&] { lent.set_value(std::this_thread::get_id()); });
  svc.start();
  const bool ran = ran_on.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.count_down();
  g.wait();  // runs the second task here if the pump never did
  const MetricsSnapshot m = svc.metrics();
  svc.stop();
  ASSERT_TRUE(ran) << "the idle pump never ran the queued task";
  EXPECT_NE(ran_on.get(), std::this_thread::get_id());
  EXPECT_GE(pool.stats().lent_tasks, 1u);
  EXPECT_GE(m.gauges[static_cast<std::size_t>(telemetry::Gauge::kPoolLentTasks)], 1.0);
  util::TaskPool::set_global_concurrency(0);
}

}  // namespace
}  // namespace hotlib::serve
