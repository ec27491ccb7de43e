#pragma once
// Particle state.  Trivially copyable so particles travel through parx
// exchanges unchanged; the cached short-range acceleration migrates with
// the particle (the KDK substeps need the force at the current position,
// which was evaluated at the end of the previous PP cycle).

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/vec3.hpp"

namespace greem::core {

struct Particle {
  Vec3 pos;      ///< comoving position in [0,1)^3
  Vec3 mom;      ///< momentum p = a^2 dx/dt (comoving) or velocity (static)
  Vec3 acc_s;    ///< cached short-range acceleration at pos
  /// Cached long-range (PM) acceleration, evaluated at the end-of-step
  /// positions by the pipelined PM cycle; the next step's long kick (and
  /// synchronize()) consume it.  Migrates through domain exchange and
  /// checkpoints with the particle, like acc_s.
  Vec3 acc_l;
  double mass = 0;
  /// Predicted short-range work share (load-balance v2): the per-particle
  /// slice of its Barnes group's measured cost, summed over the PP cycles
  /// since the last domain decomposition, which consumes it as this
  /// particle's sampling weight and resets it.  Migrates and checkpoints
  /// with the particle so cuts stay reproducible across exchanges and
  /// restarts.
  double lb_w = 0;
  std::uint64_t id = 0;
};

static_assert(std::is_trivially_copyable_v<Particle>);

/// Extract positions/masses into contiguous arrays for the force modules.
std::vector<Vec3> positions_of(std::span<const Particle> ps);
std::vector<double> masses_of(std::span<const Particle> ps);

/// Uniformly random particles in the unit box with equal masses summing to
/// total_mass (test/bench workloads).
std::vector<Particle> random_uniform_particles(std::size_t n, double total_mass,
                                               std::uint64_t seed);

/// Plummer-sphere cluster (scale radius `scale`) centered at `center`,
/// wrapped into the unit box: the strongly clustered workload used by the
/// load-balance experiments (paper Fig. 3).
std::vector<Particle> plummer_particles(std::size_t n, double total_mass, const Vec3& center,
                                        double scale, std::uint64_t seed);

/// Mixture: fraction `cluster_fraction` of particles in `nclusters` Plummer
/// clumps at seeded random centers, the rest uniform.  Mimics an evolved
/// cosmological density field for Table-I style runs.
std::vector<Particle> clustered_particles(std::size_t n, double total_mass, int nclusters,
                                          double cluster_fraction, double scale,
                                          std::uint64_t seed);

}  // namespace greem::core
