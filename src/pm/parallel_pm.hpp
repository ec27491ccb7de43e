#pragma once
// Parallel PM long-range solver: the five-step cycle of paper §II-B
// (density assignment -> layout conversion -> slab FFT + Green -> backward
// conversion -> mesh differentiation + interpolation), running over parx
// with either the direct or the relay mesh conversion.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fft/slab_fft.hpp"
#include "pm/assign.hpp"
#include "pm/green.hpp"
#include "pm/relay_mesh.hpp"
#include "util/box.hpp"
#include "util/timer.hpp"
#include "util/vec3.hpp"

namespace greem::pm {

struct ParallelPmParams {
  std::size_t n_mesh = 64;
  double rcut = 0;  ///< 0 => 3 / n_mesh
  Scheme scheme = Scheme::kTSC;
  int deconv_power = 2;  ///< kSimple Green only
  double G = 1.0;
  GreenKind green = GreenKind::kOptimal;
  ConverterParams conversion;  ///< n_mesh/n_fft filled from this struct

  double effective_rcut() const { return rcut > 0 ? rcut : 3.0 / static_cast<double>(n_mesh); }

  GreenParams green_params() const {
    return {n_mesh, effective_rcut(), scheme, deconv_power, G, green, 2};
  }
};

class ParallelPm {
 public:
  /// Collective over `world` (comm splits happen here).
  ParallelPm(parx::Comm& world, ParallelPmParams params);

  const ParallelPmParams& params() const { return params_; }

  /// Collective: install this rank's domain for the current step; local
  /// mesh regions are derived from it and allgathered.
  void update_domain(const Box& domain);

  /// Collective: add the long-range accelerations of this rank's particles
  /// (all inside the current domain) into `acc`.  Phase timings accumulate
  /// into `t` under the paper's Table I row names.
  void accelerations(std::span<const Vec3> pos, std::span<const double> mass,
                     std::span<Vec3> acc, TimingBreakdown* t = nullptr);

  MeshConverter& converter() { return *converter_; }

 private:
  ParallelPmParams params_;
  std::unique_ptr<MeshConverter> converter_;
  std::optional<fft::SlabFft> slab_fft_;  // FFT ranks only
  std::vector<double> green_chunk_;       // FFT ranks: own kx columns
  CellRegion force_region_, density_region_, potential_region_;
};

}  // namespace greem::pm
