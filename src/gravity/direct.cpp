#include "gravity/direct.hpp"

#include <algorithm>
#include <cassert>

#include "gravity/batch.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"

namespace {

// Sink-chunk size for the shared-source loops below: big enough to amortize
// task overhead over the O(chunk * n) kernel work, small enough to balance.
std::size_t sink_grain(std::size_t n, int lanes) {
  return std::max<std::size_t>(64, n / (static_cast<std::size_t>(lanes) * 8));
}

}  // namespace

namespace hotlib::gravity {

InteractionTally direct_forces(std::span<const Vec3d> pos, std::span<const double> mass,
                               double eps, double G, std::span<Vec3d> acc,
                               std::span<double> pot) {
  assert(pos.size() == mass.size() && pos.size() == acc.size() && pos.size() == pot.size());
  telemetry::Span span("direct_forces", telemetry::Phase::kForceEval, pos.size());
  const std::size_t n = pos.size();
  const double eps2 = eps * eps;
  InteractionTally tally;
  // Gather all sources once; every sink sees the same batch and skips its
  // own slot (slot == index).
  InteractionBatch batch;
  batch.resize(n, 0, false);
  for (std::size_t j = 0; j < n; ++j) batch.set_body(j, pos[j], mass[j]);
  util::TaskPool& pool = util::TaskPool::global();
  pool.parallel_for(n, sink_grain(n, pool.concurrency()),
                    [&](std::size_t lo, std::size_t hi) {
                      telemetry::ensure_worker(util::TaskPool::current_worker());
                      for (std::size_t i = lo; i < hi; ++i) {
                        Vec3d a{};
                        double p = 0;
                        batch_pp(batch, pos[i], eps2, i, a, p);
                        acc[i] = G * a;
                        pot[i] = G * p;
                      }
                    });
  if (n > 0) tally.body_body += n * (n - 1);
  telemetry::count_tally(tally);
  return tally;
}

namespace {
struct Source {
  Vec3d pos;
  double mass;
};
}  // namespace

InteractionTally ring_direct_forces(parc::Rank& rank, std::span<const Vec3d> pos,
                                    std::span<const double> mass, double eps, double G,
                                    std::span<Vec3d> acc, std::span<double> pot) {
  const int p = rank.size();
  telemetry::Span span("ring_direct_forces", telemetry::Phase::kForceEval, pos.size());
  const std::size_t n = pos.size();
  const double eps2 = eps * eps;
  InteractionTally tally;

  std::vector<Vec3d> a(n, Vec3d{});
  std::vector<double> phi(n, 0.0);

  // Travelling source block, initialized to the local block.
  std::vector<Source> travel(n);
  for (std::size_t j = 0; j < n; ++j) travel[j] = {pos[j], mass[j]};

  InteractionBatch batch;
  const int right = (rank.rank() + 1) % p;
  const int left = (rank.rank() - 1 + p) % p;
  for (int s = 0; s < p; ++s) {
    // Interact local sinks with the current travelling block. On the first
    // stage the block is our own: skip the self pair by slot (slot == index
    // because the block is gathered in order).
    const bool self_stage = (s == 0);
    batch.resize(travel.size(), 0, false);
    for (std::size_t j = 0; j < travel.size(); ++j)
      batch.set_body(j, travel[j].pos, travel[j].mass);
    util::TaskPool& pool = util::TaskPool::global();
    pool.parallel_for(n, sink_grain(n, pool.concurrency()),
                      [&](std::size_t lo, std::size_t hi) {
                        telemetry::ensure_worker(util::TaskPool::current_worker());
                        for (std::size_t i = lo; i < hi; ++i)
                          batch_pp(batch, pos[i], eps2, self_stage ? i : kNoSelf,
                                   a[i], phi[i]);
                      });
    tally.body_body +=
        static_cast<std::uint64_t>(n) * (travel.size() - (self_stage ? 1 : 0));
    if (s + 1 < p) {
      // Shift the block around the ring. Tag by stage to keep order.
      const int tag = 100 + s;
      rank.send_span<Source>(right, tag, travel);
      travel = rank.recv(left, tag).as_vector<Source>();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = G * a[i];
    pot[i] = G * phi[i];
  }
  telemetry::count_tally(tally);
  return tally;
}

}  // namespace hotlib::gravity
