#include "ic/zeldovich.hpp"

#include <cmath>
#include <numbers>

#include "fft/fft3d.hpp"
#include "ic/gaussian_field.hpp"

namespace greem::ic {
namespace {

/// Assemble particles from grid displacements psi and velocity factor.
InitialConditions assemble(std::size_t n, double a,
                           const std::array<std::vector<double>, 3>& psi, double vfac) {
  InitialConditions ics;
  const std::size_t np = n * n * n;
  ics.pos.resize(np);
  ics.mom.resize(np);
  ics.particle_mass = 1.0 / static_cast<double>(np);
  ics.a_start = a;

  double disp2_sum = 0;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t iz = 0; iz < n; ++iz)
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t ix = 0; ix < n; ++ix) {
        const std::size_t cell = (iz * n + iy) * n + ix;
        const Vec3 q{(static_cast<double>(ix) + 0.5) * inv_n,
                     (static_cast<double>(iy) + 0.5) * inv_n,
                     (static_cast<double>(iz) + 0.5) * inv_n};
        const Vec3 d{psi[0][cell], psi[1][cell], psi[2][cell]};
        ics.pos[cell] = wrap01(q + d);
        ics.mom[cell] = d * vfac;
        disp2_sum += d.norm2();
      }
  ics.rms_displacement_spacings =
      std::sqrt(disp2_sum / static_cast<double>(np)) * static_cast<double>(n);
  return ics;
}

}  // namespace

InitialConditions zeldovich_ics(const ZeldovichParams& params, const PowerSpectrum& ps,
                                const cosmo::Cosmology& cosmology) {
  const std::size_t n = params.n_per_dim;
  const double a = params.a_start;

  const auto delta = gaussian_random_field(n, ps, params.seed);
  const auto psi = displacement_field(delta, n);

  // Growing-mode velocity factor: p = a^2 dx/dt = a^2 H(a) f(a) psi.
  const double vfac = a * a * cosmology.hubble(a) * cosmology.growth_rate(a);
  return assemble(n, a, psi, vfac);
}

Lpt2Displacements lpt2_displacements(const std::vector<double>& delta, std::size_t n) {
  const fft::Fft3dR2C fft(n);
  const auto delta_k = fft.forward(delta);
  Lpt2Displacements out;
  out.psi1 = displacement_from_spectrum(fft, delta_k);

  // Second derivatives of the first-order potential: (phi1,ij)_k =
  // k_i k_j delta_k / k^2, six fields by inverse FFT.
  const double two_pi = 2.0 * std::numbers::pi;
  auto second_derivative = [&](int i, int j) {
    std::vector<fft::Complex> f(delta_k.size());
    for (std::size_t z = 0; z < n; ++z) {
      const long kz = fft::wavenumber(z, n);
      for (std::size_t y = 0; y < n; ++y) {
        const long ky = fft::wavenumber(y, n);
        for (std::size_t x = 0; x < fft.hx(); ++x) {
          const long kx = fft::wavenumber(x, n);
          const long kk[3] = {kx, ky, kz};
          const double k2 = two_pi * two_pi * static_cast<double>(kx * kx + ky * ky + kz * kz);
          // With exactly one of k_i, k_j on a Nyquist plane the mode is
          // anti-Hermitian (the Nyquist component keeps its sign under
          // k -> -k), so a real field holds none of it.
          const bool nyquist_i = 2 * kk[i] == static_cast<long>(n);
          const bool nyquist_j = 2 * kk[j] == static_cast<long>(n);
          const std::size_t c = fft.index(x, y, z);
          f[c] = k2 == 0 || nyquist_i != nyquist_j
                     ? fft::Complex{}
                     : delta_k[c] * (two_pi * two_pi * static_cast<double>(kk[i]) *
                                     static_cast<double>(kk[j]) / k2);
        }
      }
    }
    return fft.inverse(std::move(f));
  };
  const auto pxx = second_derivative(0, 0);
  const auto pyy = second_derivative(1, 1);
  const auto pzz = second_derivative(2, 2);
  const auto pxy = second_derivative(0, 1);
  const auto pxz = second_derivative(0, 2);
  const auto pyz = second_derivative(1, 2);

  // delta2 = sum_{i<j} [phi,ii phi,jj - phi,ij^2].
  std::vector<double> delta2(delta.size());
  for (std::size_t c = 0; c < delta.size(); ++c)
    delta2[c] = pxx[c] * pyy[c] - pxy[c] * pxy[c] + pxx[c] * pzz[c] - pxz[c] * pxz[c] +
                pyy[c] * pzz[c] - pyz[c] * pyz[c];

  // psi2 = D2 grad(phi2) with D2 = -(3/7) D1^2 (D1 = 1 at the IC epoch):
  // in k-space (3/7) i k delta2_k / k^2 = (3/7) * displacement_field(delta2).
  out.psi2 = displacement_field(delta2, n);
  return out;
}

InitialConditions lpt2_ics(const ZeldovichParams& params, const PowerSpectrum& ps,
                           const cosmo::Cosmology& cosmology) {
  const std::size_t n = params.n_per_dim;
  const double a = params.a_start;

  const auto delta = gaussian_random_field(n, ps, params.seed);
  const auto [psi1, psi2] = lpt2_displacements(delta, n);

  const double f1 = cosmology.growth_rate(a);
  // Second-order growth rate, f2 ~ 2 Omega_m(a)^(6/11) (Bouchet et al.).
  const double Ea = cosmology.E(a);
  const double omega_a = cosmology.omega_m / (a * a * a) / (Ea * Ea);
  const double f2 = 2.0 * std::pow(omega_a, 6.0 / 11.0);
  const double h_a = cosmology.hubble(a);
  const double v1 = a * a * h_a * f1;
  const double v2 = a * a * h_a * f2;

  // Combine displacements; velocities need the per-order growth rates, so
  // assemble positions from (psi1 + 3/7 psi2) but momenta from the split.
  std::array<std::vector<double>, 3> psi_total;
  InitialConditions ics;
  const std::size_t np = n * n * n;
  for (int axis = 0; axis < 3; ++axis) {
    auto& t = psi_total[static_cast<std::size_t>(axis)];
    t.resize(np);
    for (std::size_t c = 0; c < np; ++c)
      t[c] = psi1[static_cast<std::size_t>(axis)][c] +
             (3.0 / 7.0) * psi2[static_cast<std::size_t>(axis)][c];
  }
  ics = assemble(n, a, psi_total, 0.0);
  for (std::size_t iz = 0, cell = 0; iz < n; ++iz)
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t ix = 0; ix < n; ++ix, ++cell) {
        ics.mom[cell] = Vec3{psi1[0][cell], psi1[1][cell], psi1[2][cell]} * v1 +
                        Vec3{psi2[0][cell], psi2[1][cell], psi2[2][cell]} *
                            ((3.0 / 7.0) * v2);
      }
  return ics;
}

}  // namespace greem::ic
