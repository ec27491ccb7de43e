#include "analysis/power_measure.hpp"

#include <cmath>
#include <numbers>

#include "fft/fft3d.hpp"

namespace greem::analysis {

std::vector<PowerSpectrumBin> measure_power(std::span<const Vec3> pos,
                                            const PowerMeasureParams& params) {
  const std::size_t n = params.n_mesh;
  const auto np = static_cast<double>(pos.size());

  // Density contrast delta = rho/rho_mean - 1 via equal-mass assignment.
  std::vector<double> delta(n * n * n, 0.0);
  std::vector<double> unit_mass(pos.size(), 1.0 / np);
  pm::assign_density_periodic(delta, n, params.scheme, pos, unit_mass);
  for (double& v : delta) v -= 1.0;  // mean density of unit mass in unit box is 1

  fft::Fft3dR2C fft(n);
  const auto dk = fft.forward(delta);
  // delta_k (continuum convention, <|delta_k|^2> = P) = DFT / n^3.
  const double norm = 1.0 / static_cast<double>(n * n * n);

  const std::size_t nbins = n / 2;
  std::vector<PowerSpectrumBin> bins(nbins);
  const double shot = params.subtract_shot_noise ? 1.0 / np : 0.0;
  const double two_pi = 2.0 * std::numbers::pi;

  // The half spectrum holds kx = 0..n/2; a mode with 0 < kx < n/2 also
  // stands for its conjugate at -kx, which has the same |delta_k|.
  for (std::size_t z = 0; z < n; ++z) {
    const long kz = fft::wavenumber(z, n);
    for (std::size_t y = 0; y < n; ++y) {
      const long ky = fft::wavenumber(y, n);
      for (std::size_t x = 0; x < fft.hx(); ++x) {
        const long kx = fft::wavenumber(x, n);
        const double kn = std::sqrt(static_cast<double>(kx * kx + ky * ky + kz * kz));
        const auto bin = static_cast<std::size_t>(kn + 0.5);
        if (bin == 0 || bin >= nbins) continue;
        const std::size_t copies = x == 0 || 2 * x == n ? 1 : 2;
        const double w = pm::window(params.scheme, kx, n) * pm::window(params.scheme, ky, n) *
                         pm::window(params.scheme, kz, n);
        const double amp = std::abs(dk[fft.index(x, y, z)]) * norm / w;
        bins[bin].power += static_cast<double>(copies) * (amp * amp - shot);
        bins[bin].k += static_cast<double>(copies) * two_pi * kn;
        bins[bin].modes += copies;
      }
    }
  }
  std::vector<PowerSpectrumBin> out;
  for (std::size_t b = 1; b < nbins; ++b) {
    if (bins[b].modes == 0) continue;
    PowerSpectrumBin r = bins[b];
    r.k /= static_cast<double>(r.modes);
    r.power /= static_cast<double>(r.modes);
    out.push_back(r);
  }
  return out;
}

}  // namespace greem::analysis
