#include "cosmo/power_spectrum.hpp"

#include <cmath>

namespace hotlib::cosmo {

double CdmSpectrum::transfer(double k) const {
  if (k <= 0) return 1.0;
  const double q = k / gamma;
  const double l = std::log(1.0 + 2.34 * q) / (2.34 * q);
  const double poly = 1.0 + 3.89 * q + std::pow(16.1 * q, 2) + std::pow(5.46 * q, 3) +
                      std::pow(6.71 * q, 4);
  return l * std::pow(poly, -0.25);
}

double CdmSpectrum::operator()(double k) const {
  if (k <= 0) return 0.0;
  const double t = transfer(k);
  return amplitude * std::pow(k, spectral_index) * t * t;
}

}  // namespace hotlib::cosmo
