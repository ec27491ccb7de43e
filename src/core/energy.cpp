#include "core/energy.hpp"

namespace greem::core {

double kinetic_energy(std::span<const Particle> ps) {
  double k = 0;
  for (const auto& p : ps) k += 0.5 * p.mass * p.mom.norm2();
  return k;
}

double ewald_potential_energy(const ewald::Ewald& ew, std::span<const Particle> ps,
                              double eps2) {
  return ew.potential_energy(positions_of(ps), masses_of(ps), eps2);
}

}  // namespace greem::core
