// models.hpp — analytic initial-condition generators for tests, examples and
// benchmarks (cosmological initial conditions live in src/cosmo/).
#pragma once

#include <cstdint>

#include "hot/bodies.hpp"
#include "morton/key.hpp"

namespace hotlib::gravity {

// Plummer (1911) sphere in virial equilibrium; G = M = a = 1 units
// (standard Aarseth/Henon/Wielen sampling). Positions are clipped at
// r < clip_radius to keep the bounding domain compact.
hot::Bodies plummer_sphere(std::size_t n, std::uint64_t seed, double clip_radius = 10.0);

// Uniform random cube in [0,1)^3, equal masses summing to total_mass.
hot::Bodies uniform_cube(std::size_t n, std::uint64_t seed, double total_mass = 1.0);

// Two-body circular orbit (masses m1, m2, separation d, G = 1); the exact
// solution used by the integrator tests.
hot::Bodies two_body_circular(double m1, double m2, double separation);

// Domain comfortably containing the bodies (cubical, padded).
morton::Domain fit_domain(const hot::Bodies& b, double pad_fraction = 0.05);

}  // namespace hotlib::gravity
