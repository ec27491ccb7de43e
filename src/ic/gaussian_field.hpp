#pragma once
// Gaussian random field realization and k-space helpers for IC generation.

#include <array>
#include <cstdint>
#include <vector>

#include "fft/fft3d.hpp"
#include "ic/powerspec.hpp"

namespace greem::ic {

/// Real n^3 density-contrast field delta(x) with spectrum `ps`
/// (<|delta_k|^2> = P(k) in the unit box), from seeded white noise shaped
/// in k-space.  Reproducible for a fixed seed regardless of rank count.
std::vector<double> gaussian_random_field(std::size_t n, const PowerSpectrum& ps,
                                          std::uint64_t seed);

/// Zel'dovich displacement fields psi from a density contrast:
/// psi_k = i k / k^2 * delta_k (so that delta = -div psi).
std::array<std::vector<double>, 3> displacement_field(const std::vector<double>& delta,
                                                      std::size_t n);

/// The same from delta's half spectrum, fft.forward(delta), for callers
/// that need the spectrum for more than the displacement.
std::array<std::vector<double>, 3> displacement_from_spectrum(
    const fft::Fft3dR2C& fft, const std::vector<fft::Complex>& delta_k);

}  // namespace greem::ic
