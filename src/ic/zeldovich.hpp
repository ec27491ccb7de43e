#pragma once
// Zel'dovich-approximation initial conditions: particles start on a grid
// and are displaced by the linear displacement field; comoving momenta
// follow the linear growing mode, p = a^2 H(a) f(a) psi(q) D-scaled.

#include <array>
#include <cstdint>
#include <vector>

#include "cosmo/cosmology.hpp"
#include "ic/powerspec.hpp"
#include "util/vec3.hpp"

namespace greem::ic {

struct InitialConditions {
  std::vector<Vec3> pos;  ///< comoving, in [0,1)^3
  std::vector<Vec3> mom;  ///< comoving momenta p = a^2 dx/dt
  double particle_mass = 0;
  double a_start = 0;
  /// RMS Zel'dovich displacement in mean interparticle spacings
  /// (the approximation is valid while this is well below 1).
  double rms_displacement_spacings = 0;
};

struct ZeldovichParams {
  std::size_t n_per_dim = 32;     ///< particles = n^3, also the IC mesh size
  double a_start = 0.02;          ///< starting scale factor
  std::uint64_t seed = 42;
  double max_displacement = 0.0;  ///< >0: warn threshold in mean spacings (diagnostic)
};

/// Generate ICs; `ps` is the spectrum of the density contrast *at a_start*.
InitialConditions zeldovich_ics(const ZeldovichParams& params, const PowerSpectrum& ps,
                                const cosmo::Cosmology& cosmology);

/// Second-order LPT initial conditions (Scoccimarro 1998): adds the
/// displacement psi2 = -(3/7) grad phi2 with lap(phi2) = sum_{i<j}
/// [phi1,ii phi1,jj - phi1,ij^2], removing the leading transients of the
/// Zel'dovich approximation.  Velocities carry the second-order growth
/// rate f2 ~ 2 Omega_m^(6/11).  Same spectrum/seed conventions as
/// zeldovich_ics; for a single plane wave the two are identical.
InitialConditions lpt2_ics(const ZeldovichParams& params, const PowerSpectrum& ps,
                           const cosmo::Cosmology& cosmology);

/// The two displacement orders of lpt2_ics for an n^3 density contrast:
/// psi1 = displacement_field(delta) and psi2 = displacement_field(delta2)
/// of the second-order source delta2 (psi2 enters the positions scaled by
/// 3/7).  delta is transformed once, for psi1 and phi1's second
/// derivatives alike.
struct Lpt2Displacements {
  std::array<std::vector<double>, 3> psi1, psi2;
};
Lpt2Displacements lpt2_displacements(const std::vector<double>& delta, std::size_t n);

}  // namespace greem::ic
