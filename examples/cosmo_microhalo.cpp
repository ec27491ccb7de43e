// The paper's science scenario at laptop scale (paper Fig. 6): evolve a
// box whose initial spectrum has a sharp free-streaming cutoff (the
// neutralino case of Green et al. 2004), so the *first* dark-matter
// structures -- microhalos at the cutoff scale -- form and can be imaged,
// counted with friends-of-friends, and profiled.
//
// Writes Fig. 6-style projected density images (full box plus a zoom on
// the largest halo) at several redshifts into the working directory.
//
// Usage: cosmo_microhalo [n_per_dim=24] [nsteps=16]

#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <string>

#include "analysis/correlation.hpp"
#include "analysis/fof.hpp"
#include "fft/fft1d.hpp"
#include "analysis/profile.hpp"
#include "analysis/projection.hpp"
#include "core/parallel_sim.hpp"
#include "ic/zeldovich.hpp"
#include "io/snapshot.hpp"
#include "parx/runtime.hpp"

using namespace greem;

namespace {

void write_images(std::span<const core::Particle> ps, double a, const std::string& tag) {
  const auto pos = core::positions_of(ps);
  analysis::ProjectionParams full;
  full.pixels = 256;
  analysis::write_projection(pos, full, "microhalo_" + tag + "_full.pgm");
  // Zoom: the paper's bottom-left panel is a 1/16-width enlargement.
  analysis::ProjectionParams zoom;
  zoom.pixels = 256;
  zoom.region = Box{{0.375, 0.375, 0.0}, {0.625, 0.625, 1.0}};
  analysis::write_projection(pos, zoom, "microhalo_" + tag + "_zoom.pgm");
  std::printf("  wrote microhalo_%s_{full,zoom}.pgm (a=%.4f, z=%.1f)\n", tag.c_str(), a,
              cosmo::Cosmology::z_of_a(a));
}

}  // namespace

int main(int argc, char** argv) {
  // Rounded to a power of two: the IC generator FFTs the particle grid.
  const std::size_t n_per_dim =
      fft::next_pow2(argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 24);
  const int nsteps = argc > 2 ? std::atoi(argv[2]) : 16;

  const auto cosmos = cosmo::Cosmology::concordance_unit_mass();

  // Sharp small-scale cutoff: k_cut at ~1/4 of the particle Nyquist, so the
  // first objects are resolved by many particles (paper: the smallest
  // structures carry >~ 1e5 particles at full scale).
  // Amplitude chosen so the cutoff-scale fluctuations (sigma ~ 0.2 at
  // z = 400) collapse around z ~ 60-30, as in the paper's run.
  const double kcut = 2.0 * std::numbers::pi * static_cast<double>(n_per_dim) / 4.0;
  const ic::CutoffPowerLaw spectrum(/*amplitude=*/2e-5, /*index=*/0.0, kcut);

  ic::ZeldovichParams zp;
  zp.n_per_dim = n_per_dim;
  zp.a_start = 1.0 / 401.0;  // z = 400, the paper's starting redshift
  zp.seed = 2012;
  // 2LPT: second-order displacements remove the Zel'dovich transients that
  // would otherwise delay the first collapses.
  const auto ics = ic::lpt2_ics(zp, spectrum, cosmos);
  std::printf("2LPT ICs at z=400: %zu particles, rms displacement %.3f spacings\n",
              ics.pos.size(), ics.rms_displacement_spacings);

  std::vector<core::Particle> particles(ics.pos.size());
  for (std::size_t i = 0; i < particles.size(); ++i)
    particles[i] = {ics.pos[i], ics.mom[i], {}, {}, ics.particle_mass, 0, i};

  core::ParallelSimConfig cfg;
  cfg.pm.n_mesh = fft::next_pow2(2 * n_per_dim);
  cfg.theta = 0.5;
  cfg.ncrit = 64;
  cfg.eps = 0.03 / static_cast<double>(n_per_dim);
  cfg.metric.comoving = true;
  cfg.metric.cosmology = cosmos;

  // One rank: the serial case of the distributed driver.
  std::vector<core::Particle> final_state;
  double a_final = 0;
  parx::run_ranks(1, [&](parx::Comm& world) {
    core::ParallelSimulation sim(world, cfg, std::move(particles), zp.a_start);

    write_images(sim.local(), sim.clock(), "z400");

    // Integrate z = 400 -> 31 in log(a), imaging at the paper's snapshots.
    const double a_end = 1.0 / 32.0;
    const auto schedule = core::log_schedule(zp.a_start, a_end, nsteps);
    int imaged70 = 0, imaged40 = 0;
    for (int s = 1; s <= nsteps; ++s) {
      sim.step(schedule[static_cast<std::size_t>(s)]);
      const double z = cosmo::Cosmology::z_of_a(sim.clock());
      std::printf("step %2d  z=%6.1f  interactions=%llu\n", s, z,
                  static_cast<unsigned long long>(sim.last_step().pp_stats.interactions));
      if (z <= 70 && !imaged70++) write_images(sim.local(), sim.clock(), "z70");
      if (z <= 40 && !imaged40++) write_images(sim.local(), sim.clock(), "z40");
    }
    sim.synchronize();
    a_final = sim.clock();
    final_state = std::move(sim).take_local();
  });
  write_images(final_state, a_final, "z31");

  // Friends-of-friends census of the microhalos.
  const auto pos = core::positions_of(final_state);
  const double ll = analysis::fof_linking_length(pos.size());
  const auto groups = analysis::fof_groups(pos, ll, 32);
  std::printf("\nFoF (b=0.2): %zu microhalos with >= 32 particles\n", groups.ngroups());
  for (std::size_t g = 0; g < std::min<std::size_t>(groups.ngroups(), 5); ++g)
    std::printf("  halo %zu: %u particles (mass %.3e)\n", g, groups.group_size[g],
                groups.group_size[g] * 1.0 / static_cast<double>(pos.size()));

  if (groups.ngroups() > 0) {
    // Density profile of the largest microhalo.
    std::vector<Vec3> members;
    for (std::size_t i = 0; i < pos.size(); ++i)
      if (groups.group_of[i] == 0) members.push_back(pos[i]);
    const Vec3 center = analysis::periodic_center_of_mass(members);
    const double r_half = 2.0 / static_cast<double>(n_per_dim);
    const auto prof = analysis::radial_profile(pos, 1.0 / static_cast<double>(pos.size()),
                                               center, r_half / 32, r_half, 8);
    std::printf("\nlargest halo profile (center %.3f %.3f %.3f):\n  r          rho/rho_mean\n",
                center.x, center.y, center.z);
    for (const auto& b : prof)
      if (b.count > 0) std::printf("  %8.5f  %10.2f\n", b.r, b.density);
  }

  // Mass function: the first objects pile up at the free-streaming scale.
  if (groups.ngroups() > 1) {
    const auto mf = analysis::halo_mass_function(
        groups, 1.0 / static_cast<double>(pos.size()), 5);
    std::printf("\nmicrohalo mass function:\n  mass        count  dn/dlog10(M)\n");
    for (const auto& b : mf)
      std::printf("  %9.3e  %5zu  %10.1f\n", b.mass, b.count, b.dn_dlog10m);
  }

  // Two-point correlation: the clustering Fig. 6 shows visually.
  analysis::CorrelationParams cp;
  cp.r_min = 0.5 / static_cast<double>(n_per_dim);
  cp.r_max = 0.25;
  cp.nbins = 8;
  const auto xi = analysis::correlation_function(pos, cp);
  std::printf("\ntwo-point correlation xi(r):\n  r          xi\n");
  for (const auto& b : xi) std::printf("  %8.5f  %9.3f\n", b.r, b.xi);

  io::SnapshotHeader h;
  h.clock = a_final;
  h.comoving = 1;
  io::write_snapshot("microhalo_final.bin", h, final_state);
  std::printf("\nwrote microhalo_final.bin\n");
  return 0;
}
