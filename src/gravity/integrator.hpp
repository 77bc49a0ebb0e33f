// integrator.hpp — leapfrog (kick-drift-kick) time integration and energy
// diagnostics. The force errors of the treecode "are exceeded by or are
// comparable to the time integration error"; the energy checks in the test
// suite quantify both.
#pragma once

#include "hot/bodies.hpp"

namespace hotlib::gravity {

// v += a * dt
void kick(hot::Bodies& b, double dt);
// x += v * dt
void drift(hot::Bodies& b, double dt);

double kinetic_energy(const hot::Bodies& b);
// Potential energy from the per-body potentials already stored in b.pot
// (each pair counted twice by the solvers, hence the factor 1/2).
double potential_energy(const hot::Bodies& b);

// Total momentum (conservation diagnostic).
Vec3d total_momentum(const hot::Bodies& b);

}  // namespace hotlib::gravity
