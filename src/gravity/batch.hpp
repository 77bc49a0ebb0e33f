// batch.hpp — batched structure-of-arrays interaction kernels.
//
// The paper's headline rates come from a blocked inner loop: interactions
// are gathered into lists and evaluated in dense batches, not one pair at a
// time ("the inner loop ... runs at nearly the peak floating point rate").
// This layer is that shape for hotlib: traversals and direct evaluators fill
// an InteractionBatch (source positions, masses and optional quadrupole
// lanes, one contiguous double array per component) and the batch_* kernels
// evaluate a whole sink's list per call.
//
// Two implementations sit behind a runtime-dispatched function table:
//
//   * a portable scalar path that reproduces the per-pair kernels in
//     kernels.hpp bit-for-bit (same operations, same order), and
//   * an AVX2 path (batch_avx2.cpp, compiled with -mavx2 on x86-64) that
//     evaluates four sources per instruction. Per-lane arithmetic is the
//     same mul/add sequence as the scalar kernel — only the accumulation
//     order differs (four partial sums plus a horizontal reduction), so the
//     two paths agree to a couple of ulps of the accumulated magnitude.
//
// The path is chosen once, at first use: AVX2 when the CPU supports it,
// unless HOTLIB_SIMD=off|0|scalar forces the portable path (HOTLIB_SIMD=avx2
// asks for AVX2 explicitly and falls back to scalar when unsupported).
// Tests and benchmarks can override the choice with force_batch_path().
//
// Flop accounting is unchanged: callers tally interactions exactly as
// before (38 flops each, kFlopsPerGravityInteraction); the batch layer only
// changes how the arithmetic is scheduled, never how much of it is counted.
#pragma once

#include <array>
#include <cstddef>
#include <numbers>
#include <vector>

#include "gravity/kernels.hpp"
#include "util/vec3.hpp"

namespace hotlib::gravity {

namespace detail {
inline constexpr double kQuarterInvPi = 1.0 / (4.0 * std::numbers::pi);
}

// Sentinel for "no self term in this batch".
inline constexpr std::size_t kNoSelf = static_cast<std::size_t>(-1);

// Structure-of-arrays gather buffer for one sink group's interaction list:
// particle sources (x/y/z/m) and cell sources (com, mass and — when
// use_quad — the six trace-free quadrupole lanes). resize() sizes every lane
// once, keeping capacity, so one batch can be reused across groups without
// reallocating; set_body()/set_cell() then write every slot.
// add_body()/add_cell() (after reserve_bodies()) are the older append path.
// Only perfbench's kernel_probe and rms_rel_force_error and the kernel tests
// still build with it; perfbench changes only together with the benchmark
// definition, and the append path goes when it moves to resize().
struct InteractionBatch {
  // Particle-particle source lanes.
  std::vector<double> px, py, pz, pm;
  // Particle-cell source lanes.
  std::vector<double> cx, cy, cz, cm;
  std::array<std::vector<double>, 6> cq;  // quad lanes (xx,xy,xz,yy,yz,zz)
  bool use_quad = false;

  std::size_t body_count() const { return pm.size(); }
  std::size_t cell_count() const { return cm.size(); }

  void reserve_bodies(std::size_t n) {
    px.reserve(n); py.reserve(n); pz.reserve(n); pm.reserve(n);
  }

  // Sizes every lane for `nbodies` particle and `ncells` cell sources and
  // sets use_quad = quad: the quad lanes get `ncells` slots when quad and
  // none otherwise. Every slot must then be written with set_body/set_cell.
  void resize(std::size_t nbodies, std::size_t ncells, bool quad) {
    use_quad = quad;
    px.resize(nbodies); py.resize(nbodies); pz.resize(nbodies); pm.resize(nbodies);
    cx.resize(ncells); cy.resize(ncells); cz.resize(ncells); cm.resize(ncells);
    for (auto& q : cq) q.resize(use_quad ? ncells : 0);
  }

  void set_body(std::size_t k, const Vec3d& x, double m) {
    px[k] = x.x;
    py[k] = x.y;
    pz[k] = x.z;
    pm[k] = m;
  }

  void set_cell(std::size_t k, const Vec3d& com, double m,
                const std::array<double, 6>& quad) {
    cx[k] = com.x;
    cy[k] = com.y;
    cz[k] = com.z;
    cm[k] = m;
    if (use_quad)
      for (std::size_t q = 0; q < 6; ++q) cq[q][k] = quad[q];
  }

  // Appends a particle source; returns its slot (for self-term skipping).
  std::size_t add_body(const Vec3d& x, double m) {
    px.push_back(x.x);
    py.push_back(x.y);
    pz.push_back(x.z);
    pm.push_back(m);
    return pm.size() - 1;
  }

  void add_cell(const Vec3d& com, double m, const std::array<double, 6>& quad) {
    cx.push_back(com.x);
    cy.push_back(com.y);
    cz.push_back(com.z);
    cm.push_back(m);
    if (use_quad)
      for (int k = 0; k < 6; ++k) cq[static_cast<std::size_t>(k)].push_back(quad[static_cast<std::size_t>(k)]);
  }
};

// Structure-of-arrays gather buffer for Biot-Savart (vortex) sources:
// position and vector strength alpha. Tree cells enter as additional
// sources with the cell's centroid and summed strength — the kernel is the
// same, so one batch carries both.
struct BiotSavartBatch {
  std::vector<double> x, y, z, ax, ay, az;

  std::size_t size() const { return x.size(); }

  // Sizes every lane for `n` sources, keeping capacity; every slot must then
  // be written with set().
  void resize(std::size_t n) {
    x.resize(n); y.resize(n); z.resize(n);
    ax.resize(n); ay.resize(n); az.resize(n);
  }

  void set(std::size_t k, const Vec3d& pos, const Vec3d& alpha) {
    x[k] = pos.x;
    y[k] = pos.y;
    z[k] = pos.z;
    ax[k] = alpha.x;
    ay[k] = alpha.y;
    az[k] = alpha.z;
  }
};

// The dispatched kernel path. kScalar is always available; kAvx2 only when
// the binary carries the AVX2 translation unit and the CPU supports it.
enum class BatchPath { kScalar, kAvx2 };

// Path selected by the runtime dispatch (environment + CPUID), after any
// force_batch_path() override.
BatchPath batch_path();

// Stable name of the active path: "scalar" or "avx2". update_baselines.sh
// stamps this into each BENCH_<name>.json via `hotlib-analyze stamp`.
const char* batch_path_name();

// True when the AVX2 path could be selected on this machine (compiled in
// and supported by the CPU), regardless of the current choice.
bool batch_avx2_available();

// Test/bench override: force a specific path (kAvx2 silently degrades to
// kScalar when unavailable). Not thread-safe against concurrent batch
// evaluation — call from single-threaded setup code only.
void force_batch_path(BatchPath p);

// Evaluate every particle source of `b` against the sink at `xi`,
// accumulating acceleration (without G) and potential (without G, negative)
// exactly like pp_accumulate. `self_slot` names the sink's own slot in the
// batch (skipped); pass kNoSelf when the sink is not among the sources.
void batch_pp(const InteractionBatch& b, const Vec3d& xi, double eps2,
              std::size_t self_slot, Vec3d& acc, double& pot);

// Evaluate every cell source of `b` (monopole, plus quadrupole when
// b.use_quad) against the sink at `xi`, exactly like pc_accumulate.
void batch_pc(const InteractionBatch& b, const Vec3d& xi, double eps2,
              Vec3d& acc, double& pot);

// Evaluate every Biot-Savart source against the sink at `xi` carrying
// strength `alpha_i`: accumulates induced velocity `u` and the vortex
// stretching term `dalpha`, exactly like vortex_kernel with both outputs.
// The self term vanishes identically (d = 0), so no skip slot is needed.
void batch_biot_savart(const BiotSavartBatch& b, const Vec3d& xi,
                       const Vec3d& alpha_i, double sigma2, Vec3d& u,
                       Vec3d& dalpha);

// The scalar Biot-Savart pair kernel: velocity induced at xi by a vortex
// particle at xj with strength alpha_j, Gaussian-core-regularised with
// sigma^2, plus (when alpha_i/dalpha are given) the classical stretching
// term with the analytic velocity gradient. Shared by vortex::vortex_kernel
// and the scalar batch path so the two are bit-identical by construction.
inline void biot_savart_accumulate(const Vec3d& xi, const Vec3d& xj,
                                   const Vec3d& alpha_j, double sigma2, Vec3d& u,
                                   const Vec3d* alpha_i, Vec3d* dalpha) {
  const Vec3d d = xi - xj;
  const double r2 = norm2(d) + sigma2;
  const double rinv = karp_rsqrt(r2);
  const double s = rinv * rinv * rinv;  // (r^2+sigma^2)^{-3/2}
  const double t = s * rinv * rinv;     // (r^2+sigma^2)^{-5/2}
  const Vec3d dxa = cross(d, alpha_j);
  u += (-detail::kQuarterInvPi * s) * dxa;
  if (alpha_i != nullptr && dalpha != nullptr) {
    // (alpha_i . grad) u, classical stretching with the analytic gradient:
    //   -1/(4pi) [ s (alpha_i x alpha_j) - 3 t (d.alpha_i) (d x alpha_j) ].
    *dalpha += (-detail::kQuarterInvPi) *
               (s * cross(*alpha_i, alpha_j) - (3.0 * t * dot(d, *alpha_i)) * dxa);
  }
}

}  // namespace hotlib::gravity
