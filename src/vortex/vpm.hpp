// vpm.hpp — vortex particle method (Winckelmans-style) on the oct-tree.
//
// The paper's price/performance entry includes "a simulation of the fusion
// of two vortex rings using a vortex particle method" on Hyglac; the method
// is implemented "with 2500 lines interfaced to exactly the same library".
// We follow that structure: vortex particles carry a position and a vector
// strength alpha = omega * volume plus a core radius sigma; velocities come
// from the regularized Biot-Savart law (Rosenhead-Moore algebraic kernel)
//
//     u(x) = -1/(4 pi) sum_j (x - x_j) x alpha_j / (|x-x_j|^2 + sigma^2)^{3/2}
//
// and vortex stretching uses the classical scheme d(alpha)/dt = (alpha.grad)u
// with the analytic gradient of the same kernel. The far field is evaluated
// through the hashed oct-tree: cells aggregate a total vector strength at a
// strength-weighted centroid (the vector monopole), accepted by the same MAC
// machinery as gravity.
//
// Each vortex interaction is "substantially more complex than a
// gravitational interaction"; the paper counted flops with hardware
// performance monitors. We use a static count of the kernel's adds/multiplies
// (velocity + full velocity gradient): kFlopsPerVortexInteraction.
#pragma once

#include <vector>

#include "hot/mac.hpp"
#include "telemetry/counters.hpp"
#include "util/vec3.hpp"

namespace hotlib::vortex {

// Adds+multiplies in one velocity+gradient evaluation of the RM kernel
// (counted from the implementation in kernels below; includes the Karp
// reciprocal sqrt at 14 flops).
inline constexpr int kFlopsPerVortexInteraction = 104;

struct VortexParticles {
  std::vector<Vec3d> pos;
  std::vector<Vec3d> alpha;   // vector strength (circulation x length / omega x vol)
  std::vector<Vec3d> vel;     // evaluated velocity
  std::vector<Vec3d> dalpha;  // evaluated stretching rate
  double sigma = 0.1;         // shared core radius (remeshing keeps it uniform)

  std::size_t size() const { return pos.size(); }
  void resize(std::size_t n) {
    pos.resize(n);
    alpha.resize(n);
    vel.resize(n);
    dalpha.resize(n);
  }

  // Invariants (see Winckelmans & Leonard 1993):
  Vec3d total_strength() const;   // sum alpha (zero for closed filaments)
  Vec3d linear_impulse() const;   // 1/2 sum x cross alpha (conserved)
  double max_strength() const;
};

// Evaluate one source on one target: velocity and (optionally) the velocity
// gradient contribution contracted with the target's alpha (stretching).
void vortex_kernel(const Vec3d& xi, const Vec3d& xj, const Vec3d& alpha_j,
                   double sigma2, Vec3d& u, const Vec3d* alpha_i, Vec3d* dalpha);

// Direct O(N^2) evaluation of velocity and stretching for all particles.
InteractionTally direct_velocities(VortexParticles& p);

// Treecode evaluation: vector-monopole far field via the hashed oct-tree.
// theta-based MAC; accuracy against direct_velocities is tested.
InteractionTally tree_velocities(VortexParticles& p, const hot::Mac& mac,
                                 int bucket_size = 16);

// Midpoint (RK2) convection + stretching step.
InteractionTally step_rk2(VortexParticles& p, double dt, const hot::Mac& mac);

// Vortex ring: N filament segments on a circle of radius R centered at
// `center`, ring axis `axis` (unit), total circulation gamma.
VortexParticles make_ring(std::size_t n, double radius, double gamma,
                          const Vec3d& center, const Vec3d& axis, double sigma);

// Merge two particle sets (e.g. two rings).
VortexParticles merge(const VortexParticles& a, const VortexParticles& b);

}  // namespace hotlib::vortex
