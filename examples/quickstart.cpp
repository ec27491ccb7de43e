// Quickstart: a small cosmological TreePM run through the public API --
// generate Zel'dovich initial conditions, integrate with the
// multiple-stepsize scheme (one PM + two PP cycles per step, as in the
// paper) on a one-rank distributed driver, and report basic diagnostics
// per step.
//
// Usage: quickstart [n_per_dim=16] [nsteps=8]

#include <cstdio>
#include <cstdlib>

#include "analysis/power_measure.hpp"
#include "fft/fft1d.hpp"
#include "core/parallel_sim.hpp"
#include "ic/zeldovich.hpp"
#include "parx/runtime.hpp"

using namespace greem;

int main(int argc, char** argv) {
  // The IC generator runs an FFT on the particle grid, so the per-dimension
  // count is rounded up to a power of two.
  const std::size_t n_per_dim =
      fft::next_pow2(argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 16);
  const int nsteps = argc > 2 ? std::atoi(argv[2]) : 8;

  // Einstein-de Sitter background, unit box mass (G = 1).
  const auto cosmos = cosmo::Cosmology::eds_unit_mass();

  // Initial conditions: damped power-law spectrum at a = 0.02 (z = 49).
  ic::ZeldovichParams zp;
  zp.n_per_dim = n_per_dim;
  zp.a_start = 0.02;
  zp.seed = 42;
  const ic::CutoffPowerLaw spectrum(/*amplitude=*/2e-7, /*index=*/0.0,
                                    /*k_cut=*/6.0 * 2.0 * 3.14159265358979);
  const auto ics = ic::zeldovich_ics(zp, spectrum, cosmos);
  std::printf("ICs: %zu particles, rms displacement %.3f spacings\n", ics.pos.size(),
              ics.rms_displacement_spacings);

  std::vector<core::Particle> particles(ics.pos.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles[i] = {ics.pos[i], ics.mom[i], {}, {}, ics.particle_mass, 0, i};
  }

  // TreePM force: mesh, cutoff rcut = 3/n_mesh (the paper's choice),
  // Barnes-modified groups of <Ni> <= 64, phantom kernel.  One rank is the
  // serial case of the distributed driver.
  core::ParallelSimConfig cfg;
  cfg.pm.n_mesh = fft::next_pow2(2 * n_per_dim);
  cfg.theta = 0.5;
  cfg.ncrit = 64;
  cfg.eps = 0.05 / static_cast<double>(n_per_dim);
  cfg.metric.comoving = true;
  cfg.metric.cosmology = cosmos;
  cfg.nsub = 2;

  parx::run_ranks(1, [&](parx::Comm& world) {
    core::ParallelSimulation sim(world, cfg, std::move(particles), zp.a_start);

    const auto schedule = core::log_schedule(zp.a_start, 4.0 * zp.a_start, nsteps);
    for (int s = 1; s <= nsteps; ++s) {
      sim.step(schedule[static_cast<std::size_t>(s)]);
      const auto& pp = sim.last_step().pp_stats;
      std::printf("step %2d  a=%.4f  z=%6.2f  <Ni>=%5.1f  <Nj>=%7.1f  interactions=%llu\n", s,
                  sim.clock(), cosmo::Cosmology::z_of_a(sim.clock()), pp.mean_ni(),
                  pp.mean_nj(), static_cast<unsigned long long>(pp.interactions));
    }
    sim.synchronize();

    // Measure the final power spectrum.
    analysis::PowerMeasureParams mp;
    mp.n_mesh = fft::next_pow2(2 * n_per_dim);
    mp.subtract_shot_noise = false;
    const auto bins = analysis::measure_power(core::positions_of(sim.local()), mp);
    std::printf("\nfinal power spectrum (a=%.4f):\n  k/2pi        P(k)\n", sim.clock());
    for (std::size_t b = 0; b < bins.size(); b += 3)
      std::printf("  %6.1f  %10.3e\n", bins[b].k / 6.28318530718, bins[b].power);
  });
  return 0;
}
