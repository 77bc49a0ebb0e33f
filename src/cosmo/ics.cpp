#include "cosmo/ics.hpp"

#include <cmath>
#include <numbers>

#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace hotlib::cosmo {

namespace {

// Signed frequency index for mode i of an n-point transform.
int freq(int i, int n) { return i <= n / 2 ? i : i - n; }

}  // namespace

DisplacementField make_displacement_field(const IcsConfig& cfg) {
  const int n = cfg.grid_n;
  const std::size_t total = static_cast<std::size_t>(n) * n * n;
  const double L = cfg.box_mpc;

  // White noise in real space keeps the transform automatically Hermitian.
  std::vector<fft::Complex> delta_k(total);
  {
    Xoshiro256ss rng(cfg.seed);
    for (auto& c : delta_k) c = {rng.normal(), 0.0};
    fft::fft3d(delta_k, n, n, n, fft::Direction::Forward);
  }

  // Shape by sqrt(P(k)); zero the DC mode and the Nyquist planes (their
  // asymmetric conjugates would break Hermitian symmetry of i*k*delta).
  const double kf = 2.0 * std::numbers::pi / L;
  auto idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * n + y) * n + x;
  };
  std::vector<fft::Complex> psi_k[3];
  for (auto& p : psi_k) p.assign(total, {0, 0});

  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        const int fx = freq(x, n), fy = freq(y, n), fz = freq(z, n);
        const std::size_t i = idx(x, y, z);
        if ((fx == 0 && fy == 0 && fz == 0) || x == n / 2 || y == n / 2 || z == n / 2) {
          delta_k[i] = {0, 0};
          continue;
        }
        const double kx = kf * fx, ky = kf * fy, kz = kf * fz;
        const double k2 = kx * kx + ky * ky + kz * kz;
        const double k = std::sqrt(k2);
        delta_k[i] *= std::sqrt(cfg.spectrum(k) / (L * L * L)) ;
        // Zel'dovich: psi_k = i k delta_k / k^2.
        const fft::Complex ik_over_k2(0.0, 1.0 / k2);
        psi_k[0][i] = ik_over_k2 * kx * delta_k[i];
        psi_k[1][i] = ik_over_k2 * ky * delta_k[i];
        psi_k[2][i] = ik_over_k2 * kz * delta_k[i];
      }

  DisplacementField field;
  field.n = n;
  fft::fft3d(delta_k, n, n, n, fft::Direction::Inverse);
  field.delta.resize(total);
  for (std::size_t i = 0; i < total; ++i) field.delta[i] = delta_k[i].real();

  std::vector<double>* out[3] = {&field.psi_x, &field.psi_y, &field.psi_z};
  for (int a = 0; a < 3; ++a) {
    fft::fft3d(psi_k[a], n, n, n, fft::Direction::Inverse);
    out[a]->resize(total);
    for (std::size_t i = 0; i < total; ++i) (*out[a])[i] = psi_k[a][i].real();
  }
  return field;
}

hot::Bodies make_spherical_ics(const IcsConfig& cfg, double r_inner_frac,
                               double r_outer_frac) {
  const DisplacementField f = make_displacement_field(cfg);
  const int n = cfg.grid_n;
  const double L = cfg.box_mpc;
  const double h = L / n;
  const double m = 1.0 / (static_cast<double>(n) * n * n);
  const Vec3d center = Vec3d::all(L / 2);
  const double r_in = r_inner_frac * L;
  const double r_out = r_outer_frac * L;

  auto idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * n + y) * n + x;
  };
  auto lattice = [&](int x, int y, int z) {
    return Vec3d{(x + 0.5) * h, (y + 0.5) * h, (z + 0.5) * h};
  };

  hot::Bodies b;
  // High-resolution interior.
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        const Vec3d q = lattice(x, y, z);
        if (norm(q - center) >= r_in) continue;
        const std::size_t i = idx(x, y, z);
        const Vec3d psi{f.psi_x[i], f.psi_y[i], f.psi_z[i]};
        b.push_back(q + cfg.growth * psi, cfg.growth * psi, m, i);
      }
  // 8x-mass buffer shell: merge 2x2x2 blocks.
  for (int z = 0; z + 1 < n; z += 2)
    for (int y = 0; y + 1 < n; y += 2)
      for (int x = 0; x + 1 < n; x += 2) {
        Vec3d qc{};
        Vec3d psi{};
        for (int dz = 0; dz < 2; ++dz)
          for (int dy = 0; dy < 2; ++dy)
            for (int dx = 0; dx < 2; ++dx) {
              qc += lattice(x + dx, y + dy, z + dz);
              const std::size_t i = idx(x + dx, y + dy, z + dz);
              psi += Vec3d{f.psi_x[i], f.psi_y[i], f.psi_z[i]};
            }
        qc /= 8.0;
        psi /= 8.0;
        const double r = norm(qc - center);
        if (r < r_in || r >= r_out) continue;
        b.push_back(qc + cfg.growth * psi, cfg.growth * psi, 8 * m,
                    idx(x, y, z) | (std::uint64_t{1} << 63));
      }
  return b;
}

morton::Domain ics_domain(const IcsConfig& cfg) {
  const double pad = 0.15 * cfg.box_mpc;
  return {.lo = Vec3d::all(-pad), .size = cfg.box_mpc + 2 * pad};
}

}  // namespace hotlib::cosmo
