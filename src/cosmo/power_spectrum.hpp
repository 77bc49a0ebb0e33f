// power_spectrum.hpp — Cold Dark Matter power spectrum.
//
// The paper's initial conditions were "calculated using a ... 3-d FFT from a
// Cold Dark Matter power spectrum of density fluctuations". We use the
// standard BBKS (Bardeen, Bond, Kaiser & Szalay 1986) transfer function on a
// scale-invariant n=1 primordial spectrum — the canonical CDM spectrum of
// the early-90s simulations this paper continues.
#pragma once

namespace hotlib::cosmo {

struct CdmSpectrum {
  double amplitude = 1.0;     // overall normalization A
  double spectral_index = 1.0;  // primordial n
  double gamma = 0.25;        // shape parameter (Omega h)

  // BBKS transfer function T(k); k in h/Mpc.
  double transfer(double k) const;

  // P(k) = A k^n T(k)^2.
  double operator()(double k) const;
};

}  // namespace hotlib::cosmo
