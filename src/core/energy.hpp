#pragma once
// Energy diagnostics.  In static mode (TimeMetric::comoving == false) the
// Hamiltonian K + U is conserved by the symplectic integrator; U is the
// exact periodic (Ewald) potential.

#include <span>

#include "core/particle.hpp"
#include "ewald/ewald.hpp"

namespace greem::core {

/// Kinetic energy sum(1/2 m |mom|^2) (static mode: mom is velocity).
double kinetic_energy(std::span<const Particle> ps);

/// Exact periodic potential energy via Ewald summation (O(N^2); small N).
double ewald_potential_energy(const ewald::Ewald& ew, std::span<const Particle> ps,
                              double eps2);

}  // namespace greem::core
