#include "gravity/integrator.hpp"

namespace hotlib::gravity {

void kick(hot::Bodies& b, double dt) {
  for (std::size_t i = 0; i < b.size(); ++i) b.vel[i] += dt * b.acc[i];
}

void drift(hot::Bodies& b, double dt) {
  for (std::size_t i = 0; i < b.size(); ++i) b.pos[i] += dt * b.vel[i];
}

double kinetic_energy(const hot::Bodies& b) {
  double e = 0;
  for (std::size_t i = 0; i < b.size(); ++i) e += 0.5 * b.mass[i] * norm2(b.vel[i]);
  return e;
}

double potential_energy(const hot::Bodies& b) {
  double e = 0;
  for (std::size_t i = 0; i < b.size(); ++i) e += 0.5 * b.mass[i] * b.pot[i];
  return e;
}

Vec3d total_momentum(const hot::Bodies& b) {
  Vec3d p{};
  for (std::size_t i = 0; i < b.size(); ++i) p += b.mass[i] * b.vel[i];
  return p;
}

}  // namespace hotlib::gravity
