#include "vortex/vpm.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "gravity/batch.hpp"
#include "hot/traverse.hpp"
#include "hot/tree.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"

namespace hotlib::vortex {

Vec3d VortexParticles::total_strength() const {
  Vec3d s{};
  for (const auto& a : alpha) s += a;
  return s;
}

Vec3d VortexParticles::linear_impulse() const {
  Vec3d imp{};
  for (std::size_t i = 0; i < size(); ++i) imp += 0.5 * cross(pos[i], alpha[i]);
  return imp;
}

double VortexParticles::max_strength() const {
  double m = 0;
  for (const auto& a : alpha) m = std::max(m, norm(a));
  return m;
}

void vortex_kernel(const Vec3d& xi, const Vec3d& xj, const Vec3d& alpha_j,
                   double sigma2, Vec3d& u, const Vec3d* alpha_i, Vec3d* dalpha) {
  gravity::biot_savart_accumulate(xi, xj, alpha_j, sigma2, u, alpha_i, dalpha);
}

InteractionTally direct_velocities(VortexParticles& p) {
  InteractionTally tally;
  const double sigma2 = p.sigma * p.sigma;
  const std::size_t n = p.size();
  gravity::BiotSavartBatch batch;
  batch.resize(n);
  for (std::size_t j = 0; j < n; ++j) batch.set(j, p.pos[j], p.alpha[j]);
  // Independent sinks over a shared read-only batch; disjoint vel/dalpha
  // slices per chunk, so any thread count gives bit-identical output.
  util::TaskPool& pool = util::TaskPool::global();
  const std::size_t grain = std::max<std::size_t>(
      64, n / (static_cast<std::size_t>(pool.concurrency()) * 8));
  pool.parallel_for(n, grain, [&](std::size_t lo, std::size_t hi) {
    telemetry::ensure_worker(util::TaskPool::current_worker());
    for (std::size_t i = lo; i < hi; ++i) {
      Vec3d u{}, da{};
      // Self term vanishes identically (d = 0, alpha_i x alpha_i = 0).
      gravity::batch_biot_savart(batch, p.pos[i], p.alpha[i], sigma2, u, da);
      p.vel[i] = u;
      p.dalpha[i] = da;
    }
  });
  tally.body_body += static_cast<std::uint64_t>(n) * n;
  return tally;
}

namespace {

// The strength-weighted tree plus per-cell vector monopoles the far field
// traverses.
struct VortexTree {
  hot::Tree tree;
  std::vector<Vec3d> cell_alpha;  // per-cell summed vector strength
};

VortexTree build_vortex_tree(const VortexParticles& p, int bucket_size) {
  VortexTree vt;
  const std::size_t n = p.size();
  if (n == 0) return vt;

  // Build the tree weighted by |alpha| so cell centroids and MAC moments
  // reflect vorticity, not particle count.
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) weight[i] = norm(p.alpha[i]) + 1e-300;
  const morton::Domain domain = morton::bounding_domain(p.pos.data(), n, 0.05);
  vt.tree.build(p.pos, weight, domain, {.bucket_size = bucket_size});

  // Per-cell vector strength (the vector monopole), children before parents.
  vt.cell_alpha.resize(vt.tree.cells().size());
  vt.tree.postorder([&](const hot::Cell& c, std::uint32_t ci) {
    Vec3d a{};
    if (c.is_leaf()) {
      for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t)
        a += p.alpha[vt.tree.order()[t]];
    } else {
      for (std::uint32_t k = 0; k < c.nchildren; ++k)
        a += vt.cell_alpha[c.first_child + k];
    }
    vt.cell_alpha[ci] = a;
  });
  return vt;
}

// Bodies and accepted cells share the Biot-Savart kernel, so one batch
// carries both, sized once: particle sources in slots [0, nb) (list order),
// then cell centroids with their summed vector strengths.
void gather_biot_savart(const VortexTree& vt, const VortexParticles& p,
                        const hot::InteractionLists& lists,
                        gravity::BiotSavartBatch& batch) {
  const std::size_t nb = lists.bodies.size();
  batch.resize(nb + lists.cells.size());
  for (std::size_t k = 0; k < nb; ++k) {
    const std::uint32_t j = lists.bodies[k];
    batch.set(k, p.pos[j], p.alpha[j]);
  }
  const auto& cells = vt.tree.cells();
  for (std::size_t k = 0; k < lists.cells.size(); ++k) {
    const std::uint32_t ci = lists.cells[k];
    batch.set(nb + k, cells[ci].com, vt.cell_alpha[ci]);
  }
}

}  // namespace

InteractionTally tree_velocities(VortexParticles& p, const hot::Mac& mac,
                                 int bucket_size) {
  const double sigma2 = p.sigma * p.sigma;
  const VortexTree vt = build_vortex_tree(p, bucket_size);
  const hot::Tree& tree = vt.tree;
  const std::vector<std::uint32_t> leaves = hot::leaf_indices(tree);

  // Groups are the parallel unit, same contract as gravity::tree_forces:
  // each group's walk, gather and kernel order are fixed, each writes only
  // its own members' vel/dalpha.
  return hot::for_each_sink<gravity::BiotSavartBatch>(
      leaves.size(), "vortex_walk",
      [&](std::size_t g, hot::InteractionLists& lists, gravity::BiotSavartBatch& batch,
          InteractionTally& t) {
        const std::uint32_t li = leaves[g];
        hot::build_interaction_lists(tree, li, mac, lists, t);
        gather_biot_savart(vt, p, lists, batch);
        const hot::Cell& group = tree.cells()[li];
        for (std::uint32_t s = group.body_begin;
             s < group.body_begin + group.body_count; ++s) {
          const std::uint32_t i = tree.order()[s];
          Vec3d u{}, da{};
          gravity::batch_biot_savart(batch, p.pos[i], p.alpha[i], sigma2, u, da);
          p.vel[i] = u;
          p.dalpha[i] = da;
          t.body_body += lists.bodies.size();
          t.body_cell += lists.cells.size();
        }
      });
}

InteractionTally step_rk2(VortexParticles& p, double dt, const hot::Mac& mac) {
  InteractionTally tally = tree_velocities(p, mac);
  VortexParticles mid = p;
  for (std::size_t i = 0; i < p.size(); ++i) {
    mid.pos[i] += 0.5 * dt * p.vel[i];
    mid.alpha[i] += 0.5 * dt * p.dalpha[i];
  }
  tally += tree_velocities(mid, mac);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.pos[i] += dt * mid.vel[i];
    p.alpha[i] += dt * mid.dalpha[i];
  }
  return tally;
}

VortexParticles make_ring(std::size_t n, double radius, double gamma,
                          const Vec3d& center, const Vec3d& axis, double sigma) {
  VortexParticles p;
  p.resize(n);
  p.sigma = sigma;
  // Orthonormal frame (e1, e2, axis).
  Vec3d e1 = std::abs(axis.x) < 0.9 ? Vec3d{1, 0, 0} : Vec3d{0, 1, 0};
  e1 = e1 - dot(e1, axis) * axis;
  e1 /= norm(e1);
  const Vec3d e2 = cross(axis, e1);
  const double dl = 2.0 * std::numbers::pi * radius / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 2.0 * std::numbers::pi * static_cast<double>(i) / n;
    const Vec3d rhat = std::cos(phi) * e1 + std::sin(phi) * e2;
    const Vec3d that = cross(axis, rhat);  // right-handed: ring moves along +axis
    p.pos[i] = center + radius * rhat;
    p.alpha[i] = gamma * dl * that;
  }
  return p;
}

VortexParticles merge(const VortexParticles& a, const VortexParticles& b) {
  VortexParticles out = a;
  out.pos.insert(out.pos.end(), b.pos.begin(), b.pos.end());
  out.alpha.insert(out.alpha.end(), b.alpha.begin(), b.alpha.end());
  out.vel.insert(out.vel.end(), b.vel.begin(), b.vel.end());
  out.dalpha.insert(out.dalpha.end(), b.dalpha.begin(), b.dalpha.end());
  return out;
}

}  // namespace hotlib::vortex
