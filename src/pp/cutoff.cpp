#include "pp/cutoff.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace greem::pp {

double g_p3m(double xi) {
  if (xi >= 2.0) return 0.0;
  const double zeta = std::max(0.0, xi - 1.0);
  const double z2 = zeta * zeta;
  const double z6 = z2 * z2 * z2;
  // Horner form of paper eq. (3); the zeta branch makes the polynomial
  // exact on both sides of xi = 1 without a second piecewise expression.
  const double poly =
      -8.0 / 5.0 +
      xi * xi * (8.0 / 5.0 + xi * (-1.0 / 2.0 + xi * (-12.0 / 35.0 + xi * (3.0 / 20.0))));
  return 1.0 + xi * xi * xi * poly - z6 * (3.0 / 35.0 + xi * (18.0 / 35.0 + xi * (1.0 / 5.0)));
}

double s2_enclosed_mass_fraction(double s) {
  // S2 profile rho(r) = (3 m / (pi a^3)) (1 - r/a), r <= a; here a = 1.
  if (s >= 1.0) return 1.0;
  if (s <= 0.0) return 0.0;
  return s * s * s * (4.0 - 3.0 * s);
}

namespace {

/// Composite Simpson on [lo, hi] with n (even) intervals.
template <class F>
double simpson(F&& f, double lo, double hi, int n) {
  const double h = (hi - lo) / n;
  double sum = f(lo) + f(hi);
  for (int i = 1; i < n; ++i) sum += f(lo + i * h) * (i % 2 ? 4.0 : 2.0);
  return sum * h / 3.0;
}

}  // namespace

double g_p3m_reference(double xi) {
  // Force between two unit-mass S2 spheres of radius a = 1 at separation
  // R = xi, by 2-D quadrature over the second sphere (the first enters via
  // its enclosed-mass field).  Matches the paper's "six-dimensional spatial
  // integration" after the angular reductions.
  const double R = xi;
  if (R >= 2.0) return 0.0;
  auto rho = [](double s) { return (3.0 / std::numbers::pi) * (1.0 - s); };

  auto inner = [&](double s) {
    auto over_theta = [&](double theta) {
      const double ct = std::cos(theta), st = std::sin(theta);
      const double d2 = R * R + s * s + 2.0 * R * s * ct;
      const double d = std::sqrt(d2);
      if (d < 1e-12) return 0.0;
      const double Menc = s2_enclosed_mass_fraction(d);
      // z-component of the attractive field times the shell element.
      return st * Menc * (R + s * ct) / (d2 * d);
    };
    return 2.0 * std::numbers::pi * s * s * rho(s) * simpson(over_theta, 0.0, std::numbers::pi, 512);
  };
  const double Fz = simpson(inner, 0.0, 1.0, 512);
  // Newton force between unit masses at separation R is 1/R^2; gP3M is the
  // residual fraction carried by the PP part.
  return 1.0 - Fz * R * R;
}

double s2_fourier(double u) {
  // The closed form suffers catastrophic cancellation for small u (the
  // numerator is O(u^4) against terms of O(1)); switch to the Taylor
  // series below u = 0.2, where both branches are accurate to ~1e-12.
  if (u < 0.2) {
    const double u2 = u * u;
    return 1.0 - u2 / 15.0 + u2 * u2 / 560.0 - u2 * u2 * u2 / 37800.0;
  }
  const double u2 = u * u;
  return 12.0 * (2.0 - 2.0 * std::cos(u) - u * std::sin(u)) / (u2 * u2);
}

double h_p3m(double xi) {
  if (xi >= 2.0) return 0.0;
  if (xi <= 0.0) return 1.0;  // limit: pure Newton potential at r -> 0
  // h(xi) = xi * Int_xi^2 g/t^2 dt.  Split off the 1/t^2 singularity
  // analytically so the quadrature only sees the smooth (g-1)/t^2 part
  // (which tends to -(8/5) t as t -> 0).
  auto f = [](double t) { return t < 1e-12 ? 0.0 : (g_p3m(t) - 1.0) / (t * t); };
  return 1.0 - xi / 2.0 + xi * simpson(f, xi, 2.0, 1024);
}

}  // namespace greem::pp
