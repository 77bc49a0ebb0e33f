// ics.hpp — cosmological initial conditions via the Zel'dovich approximation.
//
// Following the paper's recipe: a Gaussian random density field is realized
// on an n^3 grid from the CDM power spectrum with a 3-D FFT; Zel'dovich
// displacements move particles off the grid, with velocities proportional to
// the displacements. The paper's runs then carve a *spherical* high-
// resolution region out of the periodic cube surrounded by a buffer of
// 8x-mass particles providing boundary conditions ("The region inside a
// sphere of diameter 160 Mpc was calculated at high mass resolution, while a
// buffer region ... with a particle mass 8 times higher was used around the
// outside"). make_spherical_ics reproduces exactly that construction by
// keeping every grid particle inside the inner sphere and merging 2x2x2
// blocks into single 8x-mass particles in the buffer shell.
#pragma once

#include <cstdint>

#include "cosmo/power_spectrum.hpp"
#include "hot/bodies.hpp"
#include "morton/key.hpp"

namespace hotlib::cosmo {

struct IcsConfig {
  int grid_n = 32;            // particles-per-side of the FFT grid
  double box_mpc = 100.0;     // periodic box side
  double growth = 1.0;        // linear growth factor D: x = q + D psi, v = D psi
  std::uint64_t seed = 1997;
  CdmSpectrum spectrum{};
};

// The paper's spherical-region construction: all high-resolution particles
// inside radius r_inner (box units, centered), 2x2x2-merged 8x-mass buffer
// particles between r_inner and r_outer, nothing outside.
hot::Bodies make_spherical_ics(const IcsConfig& cfg, double r_inner_frac = 0.4,
                               double r_outer_frac = 0.5);

// The Zel'dovich displacement field psi (3 scalar grids of size n^3,
// x-fastest layout), exposed for tests: psi_k = i k delta_k / k^2.
struct DisplacementField {
  int n = 0;
  std::vector<double> psi_x, psi_y, psi_z;
  std::vector<double> delta;  // the realized overdensity field
};
DisplacementField make_displacement_field(const IcsConfig& cfg);

// Domain enclosing the (possibly displaced) particles of a box of side
// box_mpc with padding for displacements.
morton::Domain ics_domain(const IcsConfig& cfg);

}  // namespace hotlib::cosmo
