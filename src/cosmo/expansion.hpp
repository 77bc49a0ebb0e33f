// expansion.hpp — comoving coordinates in an Einstein-de Sitter background.
//
// The paper's production cosmology integrates comoving equations of motion
// in an expanding background (the alternative to the physical-coordinate
// spherical-region setup used by simulation.hpp). For the Omega = 1
// (Einstein-de Sitter) universe of early-90s CDM simulations everything is
// analytic:
//
//   a(t) = (3 H0 t / 2)^(2/3),    t0 = 2 / (3 H0),    H = H0 a^{-3/2}.
//
// With canonical momentum p = a^2 dx/dt the leapfrog factors are time
// integrals with closed forms:
//
//   kick:   dp = -grad(phi) * K,  K = int dt / a
//   drift:  dx =  p * D,          D = int dt / a^2
//
// where phi is the comoving-coordinate potential of the *perturbation*
// (the k=0 background is removed). In linear theory the growing mode is
// D+(a) = a exactly, which the test suite verifies end to end on a plane
// wave driven by its exact periodic force.
#pragma once

#include "hot/bodies.hpp"

namespace hotlib::cosmo {

class EdsCosmology {
 public:
  // H0 in code units; for a unit box of unit total mass with G = 1, the
  // Omega = 1 background requires H0^2 = 8 pi G rho_bar / 3.
  explicit EdsCosmology(double h0) : h0_(h0) {}

  double h0() const { return h0_; }
  double t0() const { return 2.0 / (3.0 * h0_); }  // a(t0) = 1

  double a_of_t(double t) const;
  double t_of_a(double a) const;
  double hubble_of_a(double a) const;  // H(a) = H0 a^{-3/2}

  // Closed-form leapfrog factors between cosmic times t1 < t2.
  double kick_factor(double t1, double t2) const;   // int_{t1}^{t2} dt / a
  double drift_factor(double t1, double t2) const;  // int_{t1}^{t2} dt / a^2

 private:
  double h0_;
};

// One comoving KDK step from t to t+dt. `forces` must fill b.acc with the
// comoving-potential gradient of the perturbation at the comoving
// positions; velocities store the canonical momentum p = a^2 dx/dt.
template <class ForceFn>
void comoving_kdk_step(hot::Bodies& b, const EdsCosmology& cosmo, double t, double dt,
                       ForceFn&& forces) {
  const double tm = t + 0.5 * dt;
  // Kick (first half): acc currently holds forces at time t.
  const double k1 = cosmo.kick_factor(t, tm);
  for (std::size_t i = 0; i < b.size(); ++i) b.vel[i] += k1 * b.acc[i];
  // Drift across the whole step with the half-step momentum.
  const double d = cosmo.drift_factor(t, t + dt);
  for (std::size_t i = 0; i < b.size(); ++i) b.pos[i] += d * b.vel[i];
  // Kick (second half) with fresh forces.
  forces(b);
  const double k2 = cosmo.kick_factor(tm, t + dt);
  for (std::size_t i = 0; i < b.size(); ++i) b.vel[i] += k2 * b.acc[i];
}

}  // namespace hotlib::cosmo
