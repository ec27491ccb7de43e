// The production run driver: a complete cosmological TreePM simulation
// configured from a key = value file -- initial conditions (Zel'dovich or
// 2LPT), the multiple-stepsize integration in log(a), snapshot and image
// output, optional restart from a snapshot, and a FoF catalog at the end.
// The step is the distributed driver's on one rank.
//
// Every key is read and range-checked before any work starts; a bad value
// prints an error naming the key and exits with status 2.
//
// Usage: greem_run <config-file>
//        greem_run --print-defaults
// See examples/configs/microhalo.cfg for an annotated configuration.

#include <cstdio>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>

#include "analysis/fof.hpp"
#include "analysis/projection.hpp"
#include "core/parallel_sim.hpp"
#include "fft/fft1d.hpp"
#include "ic/zeldovich.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/snapshot.hpp"
#include "parx/runtime.hpp"

using namespace greem;

namespace {

const char* kDefaults = R"(# greem_run configuration (defaults shown)
n_per_dim      = 16        # particles per dimension (rounded up to a power of two)
seed           = 42
ic             = 2lpt      # zeldovich | 2lpt
amplitude      = 2e-5      # P(k) amplitude at a_start
index          = 0.0       # spectral index
kcut_modes     = 4         # free-streaming cutoff, in units of n_per_dim/kcut_div
cosmology      = concordance   # concordance | eds
a_start        = 0.0025    # z = 399
a_end          = 0.03125   # z = 31
nsteps         = 16        # log-spaced steps
n_mesh         = 0         # PM mesh per dim (0: 2*n_per_dim)
theta          = 0.5
ncrit          = 64
eps_spacings   = 0.03      # softening in mean interparticle spacings
output_prefix  = greem
snapshots      = 2         # snapshot/image dumps, log-spaced over the run
restart        =           # snapshot file to resume from (overrides ICs)
fof            = true      # FoF catalog at the end
)";

struct KnownKeys {
  std::vector<std::string> list{"n_per_dim", "seed",       "ic",         "amplitude",
                                "index",     "kcut_modes", "cosmology",  "a_start",
                                "a_end",     "nsteps",     "n_mesh",     "theta",
                                "ncrit",     "eps_spacings", "output_prefix",
                                "snapshots", "restart",    "fof"};
};

/// Every config value, read and range-checked up front.
struct Settings {
  std::size_t n_per_dim = 0;
  std::uint64_t seed = 0;
  std::string ic;
  double amplitude = 0, index = 0, kcut_modes = 0;
  std::string cosmology;
  double a_start = 0, a_end = 0;
  int nsteps = 0;
  std::size_t n_mesh = 0;
  double theta = 0;
  std::uint32_t ncrit = 0;
  double eps_spacings = 0;
  std::string prefix;
  int snapshots = 0;
  std::string restart;
  bool fof = false;
};

[[noreturn]] void reject(const std::string& key, const std::string& why) {
  throw std::invalid_argument("config key '" + key + "': " + why);
}

long int_in(const io::Config& cfg, const std::string& key, long fallback, long lo, long hi) {
  const long v = cfg.get_int(key, fallback);
  if (v < lo || v > hi)
    reject(key, std::to_string(v) + " is outside [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
  return v;
}

double double_in(const io::Config& cfg, const std::string& key, double fallback, double lo,
                 double hi) {
  const double v = cfg.get_double(key, fallback);
  if (v < lo || v > hi) {
    char why[96];
    std::snprintf(why, sizeof why, "%g is outside [%g, %g]", v, lo, hi);
    reject(key, why);
  }
  return v;
}

std::string one_of(const io::Config& cfg, const std::string& key, const std::string& fallback,
                   const std::vector<std::string>& allowed) {
  const std::string v = cfg.get_string(key, fallback);
  std::string list;
  for (const auto& a : allowed) {
    if (v == a) return v;
    list += (list.empty() ? "" : " | ") + a;
  }
  reject(key, "'" + v + "' is not one of " + list);
}

/// Throws std::invalid_argument on the first bad value.
Settings read_settings(const io::Config& cfg) {
  constexpr long kMaxLong = std::numeric_limits<long>::max();
  Settings s;
  s.n_per_dim = fft::next_pow2(static_cast<std::size_t>(int_in(cfg, "n_per_dim", 16, 2, 1024)));
  s.seed = static_cast<std::uint64_t>(int_in(cfg, "seed", 42, 0, kMaxLong));
  s.ic = one_of(cfg, "ic", "2lpt", {"zeldovich", "2lpt"});
  s.amplitude = double_in(cfg, "amplitude", 2e-5, 0.0, 1.0);
  s.index = double_in(cfg, "index", 0.0, -4.0, 4.0);
  s.kcut_modes = double_in(cfg, "kcut_modes", 4.0, 1e-3, 1e6);
  s.cosmology = one_of(cfg, "cosmology", "concordance", {"concordance", "eds"});
  s.a_start = double_in(cfg, "a_start", 0.0025, 1e-6, 1.0);
  s.a_end = double_in(cfg, "a_end", 0.03125, 1e-6, 1e3);
  if (s.a_end <= s.a_start) reject("a_end", "must be greater than a_start");
  s.nsteps = static_cast<int>(int_in(cfg, "nsteps", 16, 1, 1000000));
  const long n_mesh = int_in(cfg, "n_mesh", 0, 0, 2048);
  s.n_mesh = fft::next_pow2(n_mesh > 0 ? static_cast<std::size_t>(n_mesh) : 2 * s.n_per_dim);
  s.theta = double_in(cfg, "theta", 0.5, 0.0, 2.0);
  s.ncrit = static_cast<std::uint32_t>(int_in(cfg, "ncrit", 64, 1, 1 << 20));
  s.eps_spacings = double_in(cfg, "eps_spacings", 0.03, 0.0, 1.0);
  s.prefix = cfg.get_string("output_prefix", "greem");
  if (s.prefix.empty()) reject("output_prefix", "must not be empty");
  s.snapshots = static_cast<int>(int_in(cfg, "snapshots", 2, 1, 1000000));
  s.restart = cfg.get_string("restart", "");
  s.fof = cfg.get_bool("fof", true);
  return s;
}

void dump(const std::string& prefix, int index, const core::ParallelSimulation& sim) {
  char tag[64];
  std::snprintf(tag, sizeof tag, "%s_%03d", prefix.c_str(), index);
  const auto ps = sim.local();
  io::SnapshotHeader h;
  h.clock = sim.clock();
  h.comoving = 1;
  h.particle_mass = ps.empty() ? 0 : ps[0].mass;
  io::write_snapshot(std::string(tag) + ".bin", h, ps);
  analysis::ProjectionParams pp;
  pp.pixels = 256;
  analysis::write_projection(core::positions_of(ps), pp, std::string(tag) + ".pgm");
  std::printf("  dumped %s.{bin,pgm} at a = %.5f (z = %.1f)\n", tag, sim.clock(),
              cosmo::Cosmology::z_of_a(sim.clock()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--print-defaults") == 0) {
    std::fputs(kDefaults, stdout);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <config-file> | --print-defaults\n", argv[0]);
    return 2;
  }
  std::string error;
  const auto cfg_opt = io::Config::parse_file(argv[1], &error);
  if (!cfg_opt) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const io::Config& cfg = *cfg_opt;
  for (const auto& key : cfg.unknown_keys(KnownKeys{}.list))
    std::fprintf(stderr, "warning: unknown config key '%s'\n", key.c_str());
  Settings set;
  try {
    set = read_settings(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const auto cosmos = set.cosmology == "eds" ? cosmo::Cosmology::eds_unit_mass()
                                             : cosmo::Cosmology::concordance_unit_mass();

  // Initial conditions (or restart).
  std::vector<core::Particle> particles;
  double clock = set.a_start;
  if (!set.restart.empty()) {
    const auto snap = io::read_snapshot(set.restart);
    if (!snap) {
      std::fprintf(stderr, "error: cannot read restart snapshot %s\n", set.restart.c_str());
      return 2;
    }
    particles = snap->particles;
    clock = snap->header.clock;
    if (!(clock < set.a_end)) {
      std::fprintf(stderr, "error: restart snapshot is at a = %g, not before a_end = %g\n",
                   clock, set.a_end);
      return 2;
    }
    std::printf("restarting from %s at a = %.5f (%zu particles)\n", set.restart.c_str(), clock,
                particles.size());
  } else {
    ic::ZeldovichParams zp;
    zp.n_per_dim = set.n_per_dim;
    zp.a_start = set.a_start;
    zp.seed = set.seed;
    const double kcut =
        2.0 * std::numbers::pi * static_cast<double>(set.n_per_dim) / set.kcut_modes;
    const ic::CutoffPowerLaw spectrum(set.amplitude, set.index, kcut);
    const auto ics = set.ic == "zeldovich" ? ic::zeldovich_ics(zp, spectrum, cosmos)
                                           : ic::lpt2_ics(zp, spectrum, cosmos);
    std::printf("%s ICs: %zu particles at z = %.1f, rms displacement %.3f spacings\n",
                set.ic.c_str(), ics.pos.size(), cosmo::Cosmology::z_of_a(set.a_start),
                ics.rms_displacement_spacings);
    particles.resize(ics.pos.size());
    for (std::size_t i = 0; i < particles.size(); ++i)
      particles[i] = {ics.pos[i], ics.mom[i], {}, {}, ics.particle_mass, 0, i};
  }

  core::ParallelSimConfig sim_cfg;
  sim_cfg.pm.n_mesh = set.n_mesh;
  sim_cfg.theta = set.theta;
  sim_cfg.ncrit = set.ncrit;
  sim_cfg.eps = set.eps_spacings / static_cast<double>(set.n_per_dim);
  sim_cfg.metric.comoving = true;
  sim_cfg.metric.cosmology = cosmos;

  parx::run_ranks(1, [&](parx::Comm& world) {
    core::ParallelSimulation sim(world, sim_cfg, std::move(particles), clock);

    const auto schedule = core::log_schedule(clock, set.a_end, set.nsteps);
    int next_dump = 1;
    dump(set.prefix, 0, sim);
    for (int s = 1; s <= set.nsteps; ++s) {
      sim.step(schedule[static_cast<std::size_t>(s)]);
      std::printf("step %3d/%d  a = %.5f  z = %6.1f  interactions = %llu\n", s, set.nsteps,
                  sim.clock(), cosmo::Cosmology::z_of_a(sim.clock()),
                  static_cast<unsigned long long>(sim.last_step().pp_stats.interactions));
      if (s * set.snapshots >= next_dump * set.nsteps) {
        sim.synchronize();
        dump(set.prefix, next_dump, sim);
        ++next_dump;
      }
    }
    sim.synchronize();

    if (set.fof) {
      const auto pos = core::positions_of(sim.local());
      const auto groups =
          analysis::fof_groups(pos, analysis::fof_linking_length(pos.size()), 32);
      const std::string catalog = set.prefix + "_halos.csv";
      io::write_halo_catalog(catalog, groups, pos, 1.0 / static_cast<double>(pos.size()));
      std::printf("FoF: %zu halos >= 32 particles -> %s\n", groups.ngroups(),
                  catalog.c_str());
    }
  });
  return 0;
}
