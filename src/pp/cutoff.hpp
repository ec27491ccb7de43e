#pragma once
// The TreePM force-split functions.
//
// The paper splits a point mass into a linearly-decreasing S2 density of
// radius rcut/2 (the PM part, eq. 1) and a residual (the PP part).  The
// pair force then carries the cutoff factor gP3M(xi), xi = 2r/rcut
// (eq. 3), which falls from 1 at xi=0 to exactly 0 at xi=2; the long-range
// force is suppressed in k-space by the Fourier transform of the S2 shape.

#include <cstddef>

namespace greem::pp {

/// Paper eq. (3): the short-range cutoff factor, evaluated with the
/// branch-at-xi=1 polynomial form optimized for FMA hardware.
/// Valid for xi >= 0; returns 0 for xi >= 2.
double g_p3m(double xi);

/// Numerical reference for g_p3m: 1 - (force between two S2 spheres of
/// radius a at separation r = xi*a) * r^2 / (G m^2), by direct 2-D
/// quadrature of the interaction integral.  Slow; used only in tests.
double g_p3m_reference(double xi);

/// Fourier transform of the S2 density shape (unit mass), as a function of
/// u = k * rcut / 2:  s2(u) = 12 (2 - 2 cos u - u sin u) / u^4.
/// This is the k-space suppression factor of the long-range (PM) force.
double s2_fourier(double u);

/// Enclosed mass fraction of the S2 profile within radius s (a = profile
/// radius = rcut/2): M(<s)/m.  Used by the reference integrator and tests.
double s2_enclosed_mass_fraction(double s_over_a);

/// Potential cutoff counterpart: the pair potential is
/// -(G m / r) * h(xi); h -> 1 for xi -> 0 and h(xi >= 2) = 0.
/// Obtained by integrating g from xi to 2: h(xi) = xi * Int_xi^2 g(t)/t^2 dt.
/// Computed by quadrature.
double h_p3m(double xi);

}  // namespace greem::pp
