#include "gravity/models.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace hotlib::gravity {

hot::Bodies plummer_sphere(std::size_t n, std::uint64_t seed, double clip_radius) {
  hot::Bodies b;
  Xoshiro256ss rng(seed);
  const double m = 1.0 / static_cast<double>(n);
  while (b.size() < n) {
    // Radius from the cumulative mass profile M(r) = r^3 (1+r^2)^{-3/2}.
    const double u = rng.uniform(1e-10, 1.0);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    if (r > clip_radius) continue;
    const Vec3d dir = [&rng] {
      for (;;) {
        Vec3d v{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        const double d2 = norm2(v);
        if (d2 > 1e-12 && d2 <= 1.0) return v / std::sqrt(d2);
      }
    }();
    // Velocity: von Neumann rejection on g(q) = q^2 (1-q^2)^{7/2}.
    double q, g;
    do {
      q = rng.uniform();
      g = rng.uniform(0.0, 0.1);
    } while (g > q * q * std::pow(1.0 - q * q, 3.5));
    const double vesc = std::sqrt(2.0) * std::pow(1.0 + r * r, -0.25);
    const double v = q * vesc;
    const Vec3d vdir = [&rng] {
      for (;;) {
        Vec3d w{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
        const double d2 = norm2(w);
        if (d2 > 1e-12 && d2 <= 1.0) return w / std::sqrt(d2);
      }
    }();
    b.push_back(r * dir, v * vdir, m, b.size());
  }
  return b;
}

hot::Bodies uniform_cube(std::size_t n, std::uint64_t seed, double total_mass) {
  hot::Bodies b;
  Xoshiro256ss rng(seed);
  const double m = total_mass / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) b.push_back(rng.in_cube(), Vec3d{}, m, i);
  return b;
}

hot::Bodies two_body_circular(double m1, double m2, double separation) {
  hot::Bodies b;
  const double mtot = m1 + m2;
  // Circular orbital speed about the barycenter: omega^2 d^3 = G mtot.
  const double omega = std::sqrt(mtot / (separation * separation * separation));
  const double r1 = separation * m2 / mtot;
  const double r2 = separation * m1 / mtot;
  b.push_back({-r1, 0, 0}, {0, -r1 * omega, 0}, m1, 0);
  b.push_back({r2, 0, 0}, {0, r2 * omega, 0}, m2, 1);
  return b;
}

morton::Domain fit_domain(const hot::Bodies& b, double pad_fraction) {
  return morton::bounding_domain(b.pos.data(), b.size(), pad_fraction);
}

}  // namespace hotlib::gravity
