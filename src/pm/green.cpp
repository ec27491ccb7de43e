#include "pm/green.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>

#include "fft/fft3d.hpp"
#include "pp/cutoff.hpp"
#include "telemetry/telemetry.hpp"

namespace greem::pm {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Per-axis transfer function of the 4-point finite difference,
/// F[D](k) = i d(k):  d(k) = (8 sin(k h) - sin(2 k h)) / (6 h).
double fd_transfer(double k, double h) {
  return (8.0 * std::sin(k * h) - std::sin(2.0 * k * h)) / (6.0 * h);
}

/// Assignment window at continuous wavenumber k (one axis):
/// U(k) = sinc(k h / 2)^support.
double axis_window(double k, double h, int power) {
  const double x = 0.5 * k * h;
  const double sinc = std::abs(x) < 1e-12 ? 1.0 : std::sin(x) / x;
  double w = sinc;
  for (int i = 1; i < power; ++i) w *= sinc;
  return w;
}

/// Sorted absolute wavenumbers a >= b >= c of (kx, ky, kz): the
/// representative of the mode's class under the cubic symmetry group.
std::array<long, 3> canonical(long kx, long ky, long kz) {
  std::array<long, 3> c = {std::abs(kx), std::abs(ky), std::abs(kz)};
  std::sort(c.begin(), c.end(), std::greater<>());
  return c;
}

/// Position of the sorted class (a, b, c) in the wedge a >= b >= c >= 0:
/// C(a+2, 3) + C(b+1, 2) + c.
std::size_t wedge_index(const std::array<long, 3>& c) {
  const auto a = static_cast<std::size_t>(c[0]);
  const auto b = static_cast<std::size_t>(c[1]);
  return a * (a + 1) * (a + 2) / 6 + b * (b + 1) / 2 + static_cast<std::size_t>(c[2]);
}

}  // namespace

double green_potential(const GreenParams& p, long kx, long ky, long kz) {
  if (kx == 0 && ky == 0 && kz == 0) return 0.0;
  const double k2 = kTwoPi * kTwoPi * static_cast<double>(kx * kx + ky * ky + kz * kz);
  const double k = std::sqrt(k2);
  // The S2 shape factor enters squared: the sources are S2-smeared and the
  // force on each particle is averaged over its own S2 cloud, so the pair
  // force reproduced by the mesh is the cloud-cloud force whose complement
  // is exactly gP3M (eq. 3), vanishing at r = rcut = 2a.
  const double s2 = pp::s2_fourier(k * p.rcut / 2.0);
  double g = -4.0 * std::numbers::pi * p.G / k2 * s2 * s2;
  if (p.deconv_power > 0) {
    double w = window(p.scheme, kx, p.n_mesh) * window(p.scheme, ky, p.n_mesh) *
               window(p.scheme, kz, p.n_mesh);
    for (int i = 0; i < p.deconv_power; ++i) g /= w;
  }
  return g;
}

double green_optimal(const GreenParams& p, long kx, long ky, long kz) {
  const std::array<long, 3> c = canonical(kx, ky, kz);
  if (c[0] == 0) return 0.0;
  const long n = static_cast<long>(p.n_mesh);
  const double h = 1.0 / static_cast<double>(n);
  const double ks = kTwoPi * static_cast<double>(n);
  const int wp = support(p.scheme);

  // Per axis: the FD transfer d_a, and the alias wavenumbers
  // k_a + 2 pi N m (m in [-range, range]) with their windows U.  At the
  // Nyquist wavenumber sin(k h) and sin(2 k h) vanish, but evaluated they
  // leave ~1e-15 n, which would turn G of an FD-blind mode into a ratio of
  // roundoff; d_a is set to 0 exactly there.
  double d[3];
  std::array<std::vector<double>, 3> q, u;
  for (std::size_t a = 0; a < 3; ++a) {
    const double k = kTwoPi * static_cast<double>(c[a]);
    d[a] = 2 * c[a] == n ? 0.0 : fd_transfer(k, h);
    for (int m = -p.alias_range; m <= p.alias_range; ++m) {
      q[a].push_back(k + ks * m);
      u[a].push_back(axis_window(q[a].back(), h, wp));
    }
  }
  const double dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  if (dd == 0) return 0.0;  // FD-blind mode: the FD cannot act on it

  // Alias sums of U^2 and U^2 r_a, with r_a = 4 pi G k_a s2^2 / k^2 and
  // one s2 per alias image (k^2 > 0 there: no image of a nonzero mode
  // reaches the origin).  The numerator cancels heavily near the mesh
  // scale, so r_a keeps the operation order of the reference force.
  const double four_pi_g = 4.0 * std::numbers::pi * p.G;
  double usum = 0;
  double dr[3] = {0, 0, 0};
  for (std::size_t mx = 0; mx < q[0].size(); ++mx) {
    const double ax = q[0][mx];
    for (std::size_t my = 0; my < q[1].size(); ++my) {
      const double ay = q[1][my];
      const double uxy = u[0][mx] * u[1][my];
      for (std::size_t mz = 0; mz < q[2].size(); ++mz) {
        const double az = q[2][mz];
        const double uu = uxy * u[2][mz];
        const double u2 = uu * uu;
        const double k2n = ax * ax + ay * ay + az * az;
        const double s2 = pp::s2_fourier(std::sqrt(k2n) * p.rcut / 2.0);
        usum += u2;
        dr[0] += u2 * (four_pi_g * ax * s2 * s2 / k2n);
        dr[1] += u2 * (four_pi_g * ay * s2 * s2 / k2n);
        dr[2] += u2 * (four_pi_g * az * s2 * s2 / k2n);
      }
    }
  }
  const double num = d[0] * dr[0] + d[1] * dr[1] + d[2] * dr[2];
  return -num / (dd * usum * usum);
}

double green_value(const GreenParams& p, long kx, long ky, long kz) {
  return p.kind == GreenKind::kOptimal ? green_optimal(p, kx, ky, kz)
                                       : green_potential(p, kx, ky, kz);
}

GreenMemo::GreenMemo(const GreenParams& p) : p_(p) {
  const auto m = static_cast<long>(p.n_mesh / 2);
  value_.assign(wedge_index({m, m, m}) + 1, std::numeric_limits<double>::quiet_NaN());
  telemetry::Registry::global().counter("pm/green_tables").add();
}

double GreenMemo::operator()(long kx, long ky, long kz) {
  static telemetry::Counter& evals = telemetry::Registry::global().counter("pm/green_evals");
  const std::array<long, 3> c = canonical(kx, ky, kz);
  assert(2 * static_cast<std::size_t>(c[0]) <= p_.n_mesh);
  double& v = value_[wedge_index(c)];
  if (std::isnan(v)) {
    v = green_value(p_, c[0], c[1], c[2]);
    ++evaluations_;
    evals.add();
  }
  return v;
}

std::vector<double> build_green_table_r2c(const GreenParams& p, std::size_t x_begin,
                                          std::size_t x_end) {
  const std::size_t n = p.n_mesh, nx = x_end - x_begin;
  assert(x_begin <= x_end && x_end <= n / 2 + 1);
  GreenMemo green(p);
  std::vector<double> table(n * n * nx);
  // In the half spectrum fft::wavenumber(x, n) = x.
  for (std::size_t z = 0; z < n; ++z) {
    const long kz = fft::wavenumber(z, n);
    for (std::size_t y = 0; y < n; ++y) {
      const long ky = fft::wavenumber(y, n);
      for (std::size_t x = x_begin; x < x_end; ++x)
        table[(z * n + y) * nx + (x - x_begin)] = green(static_cast<long>(x), ky, kz);
    }
  }
  return table;
}

std::vector<double> build_green_table_r2c(const GreenParams& p) {
  return build_green_table_r2c(p, 0, p.n_mesh / 2 + 1);
}

}  // namespace greem::pm
