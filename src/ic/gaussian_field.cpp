#include "ic/gaussian_field.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "fft/fft3d.hpp"
#include "util/rng.hpp"

namespace greem::ic {

std::vector<double> gaussian_random_field(std::size_t n, const PowerSpectrum& ps,
                                          std::uint64_t seed) {
  fft::Fft3d fft(n);
  const std::size_t cells = n * n * n;

  // White noise w ~ N(0,1) per cell: W = F(w) has <|W_k|^2> = n^3 with the
  // exact Hermitian symmetry of a real field.
  std::vector<fft::Complex> field(cells);
  {
    Rng rng(seed, 0);
    for (std::size_t i = 0; i < cells; ++i) field[i] = {rng.normal(), 0.0};
  }
  fft.forward(field);

  // Shape to the spectrum.  delta(x) = sum_k c_k exp(2 pi i k.x) with
  // <|c_k|^2> = P(k); c_k = W_k sqrt(P) / n^{3/2}, and our inverse FFT
  // carries 1/n^3, so multiply by n^3 / n^{3/2} = n^{3/2} in total.
  const double norm = std::pow(static_cast<double>(n), 1.5);
  const double two_pi = 2.0 * std::numbers::pi;
  for (std::size_t z = 0; z < n; ++z) {
    const long kz = fft::wavenumber(z, n);
    for (std::size_t y = 0; y < n; ++y) {
      const long ky = fft::wavenumber(y, n);
      for (std::size_t x = 0; x < n; ++x) {
        const long kx = fft::wavenumber(x, n);
        const double k = two_pi * std::sqrt(static_cast<double>(kx * kx + ky * ky + kz * kz));
        const double amp = k > 0 ? std::sqrt(ps(k)) * norm : 0.0;  // zero-mean field
        field[fft.index(x, y, z)] *= amp;
      }
    }
  }
  fft.inverse(field);

  std::vector<double> delta(cells);
  for (std::size_t i = 0; i < cells; ++i) delta[i] = field[i].real();
  return delta;
}

std::array<std::vector<double>, 3> displacement_field(const std::vector<double>& delta,
                                                      std::size_t n) {
  const fft::Fft3dR2C fft(n);
  return displacement_from_spectrum(fft, fft.forward(delta));
}

std::array<std::vector<double>, 3> displacement_from_spectrum(
    const fft::Fft3dR2C& fft, const std::vector<fft::Complex>& delta_k) {
  const std::size_t n = fft.n();
  const double two_pi = 2.0 * std::numbers::pi;

  std::array<std::vector<double>, 3> psi;
  for (int axis = 0; axis < 3; ++axis) {
    std::vector<fft::Complex> pk(delta_k.size());
    for (std::size_t z = 0; z < n; ++z) {
      const long kz = fft::wavenumber(z, n);
      for (std::size_t y = 0; y < n; ++y) {
        const long ky = fft::wavenumber(y, n);
        for (std::size_t x = 0; x < fft.hx(); ++x) {
          const long kx = fft::wavenumber(x, n);
          const long kk[3] = {kx, ky, kz};
          const double k2 =
              two_pi * two_pi * static_cast<double>(kx * kx + ky * ky + kz * kz);
          const std::size_t i = fft.index(x, y, z);
          // Nyquist planes are zeroed: the spectral derivative i*k is not
          // Hermitian at the self-conjugate Nyquist mode, so its content
          // cannot be represented in a real displacement field.
          const bool nyquist = (x == n / 2) || (y == n / 2) || (z == n / 2);
          if (k2 == 0 || nyquist) {
            pk[i] = 0;
          } else {
            // psi_k = i k / k^2 delta_k
            const double kc = two_pi * static_cast<double>(kk[axis]);
            pk[i] = fft::Complex(0.0, kc / k2) * delta_k[i];
          }
        }
      }
    }
    psi[static_cast<std::size_t>(axis)] = fft.inverse(std::move(pk));
  }
  return psi;
}

}  // namespace greem::ic
