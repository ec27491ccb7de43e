// Step benchmark of the distributed TreePM simulation (core::ParallelSimulation)
// on one of three seeded workloads.  Prints one JSON object as the last line
// of standard output:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   greem_perf --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// A run is a sequence of episodes, each starting from the same seeded
// initial condition: set the simulation up (PM plans, initial domain
// decomposition, first PP + PM force cycle), advance kStepsPerEpisode steps,
// writing a checkpoint after each.  Restarting from the initial condition
// keeps the work per step the same however many episodes fit into the run,
// so the medians do not drift with machine speed.  Episode 0 is a warmup (page faults,
// task-pool spin-up) and carries the one-off checks: the force against an
// Ewald-summation reference and a checkpoint restore round trip.  Under
// CostMetric::kInteractions every episode must end in the bit-identical
// state; an episode that does not counts its steps as failed.
//
// --trace 0 reports the end-to-end metrics: median step time, median set-up
// time, median live heap after each step, median checkpoint write time, and
// the median relative force error.  --trace 1 runs the same episodes, then
// replays the final step's layers one at a time on the final state (domain
// decomposition, ghost selection, ghost exchange, tree construction, tree
// walk + force kernel, PM cycle), each inside a span, and reports per-layer
// times and rates; the spans are written to DIR/trace_<workload>.json
// (Chrome trace format).
// Rank-local layers are replayed one rank at a time, so their rates are not
// diluted by the rank threads sharing the host's cores.  The replayed short-
// and long-range accelerations must equal the step's bit for bit.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel_sim.hpp"
#include "core/particle.hpp"
#include "domain/exchange.hpp"
#include "domain/sampling.hpp"
#include "ewald/ewald.hpp"
#include "parx/runtime.hpp"
#include "pm/parallel_pm.hpp"
#include "pp/kernels.hpp"
#include "telemetry/trace.hpp"
#include "tree/ghost.hpp"
#include "tree/octree.hpp"
#include "tree/traversal.hpp"
#include "util/box.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace greem;

namespace {

constexpr int kStepsPerEpisode = 4;
constexpr double kDt = 1e-3;
/// Particles whose force is checked against Ewald summation (by id stride).
constexpr std::size_t kForceSamples = 4096;
/// Median relative force error above which the run is marked incorrect; the
/// rcut = 3 mesh cells split leaves about 1-2% (docs/force_split.md).
constexpr double kMaxForceError = 0.05;
constexpr int kReplays = 5;

struct Workload {
  const char* name;
  std::array<int, 3> dims;
  std::size_t n;
  std::size_t n_mesh;
  int clusters;  ///< 0: uniform random positions
};

// Why these three: "clustered" is the Table I shape (PP walk + kernel bound,
// load balancing busy); "uniform" has short interaction lists and nothing
// to balance, so PM and ghost exchange weigh more; "fine_mesh" runs the
// clustered box on a 64^3 mesh, which halves rcut: the PP lists shrink and
// the PM cycle (mesh conversion, FFT) carries a large share of the step.
constexpr Workload kWorkloads[] = {
    {"clustered", {2, 2, 2}, 65536, 32, 8},
    {"uniform", {2, 2, 2}, 65536, 32, 0},
    {"fine_mesh", {2, 2, 2}, 65536, 64, 8},
};

/// Initial condition of a workload: `clusters` Plummer clumps (scale 0.03)
/// holding 70% of the mass over a uniform background, or uniform positions.
/// The clump centres come from a fixed layout seed, so every --seed runs the
/// same large-scale structure and only the particle draws change; with
/// seeded centres the work per step moved by ~15% from seed to seed.
std::vector<core::Particle> make_particles(const Workload& w, std::uint64_t seed) {
  if (w.clusters == 0) return core::random_uniform_particles(w.n, 1.0, seed);
  constexpr std::uint64_t kLayoutSeed = 2718;
  Rng layout(kLayoutSeed);
  const std::size_t per_clump = w.n * 7 / 10 / static_cast<std::size_t>(w.clusters);
  const double m = 1.0 / static_cast<double>(w.n);
  std::vector<core::Particle> out;
  out.reserve(w.n);
  for (int c = 0; c < w.clusters; ++c) {
    const Vec3 centre{layout.uniform(), layout.uniform(), layout.uniform()};
    const std::uint64_t clump_seed = seed * 64 + static_cast<std::uint64_t>(c);
    const auto clump = core::plummer_particles(per_clump, m * static_cast<double>(per_clump),
                                               centre, 0.03, clump_seed);
    out.insert(out.end(), clump.begin(), clump.end());
  }
  const std::size_t n_bg = w.n - out.size();
  const auto bg = core::random_uniform_particles(n_bg, m * static_cast<double>(n_bg), seed);
  out.insert(out.end(), bg.begin(), bg.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].id = i;
  return out;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) opt.workload = &w;
      if (!opt.workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", v);
        return false;
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (flag == "--out") {
      opt.out = v;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flag without a value\n");
    return false;
  }
  if (!opt.workload) std::fprintf(stderr, "--workload is required\n");
  return opt.workload != nullptr && opt.seconds > 0;
}

core::ParallelSimConfig make_config(const Workload& w) {
  core::ParallelSimConfig cfg;
  cfg.dims = w.dims;
  cfg.pm.n_mesh = w.n_mesh;
  cfg.pm.conversion.method = pm::MeshConversion::kRelay;
  cfg.pm.conversion.n_groups = 2;
  cfg.theta = 0.5;
  cfg.ncrit = 100;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 10000;
  // Interaction-count cost weighting makes every episode bitwise
  // reproducible, which is what the end-of-episode digest checks.
  cfg.cost_metric = core::CostMetric::kInteractions;
  return cfg;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Wall seconds of a collective section, bracketed by barriers so every rank
/// times the same interval (rank 0's reading is the one reported).
template <class F>
double timed(parx::Comm& world, F&& f) {
  world.barrier();
  Stopwatch sw;
  f();
  world.barrier();
  return sw.seconds();
}

/// Run `f` on one rank at a time; returns this rank's own seconds.
template <class F>
double one_rank_at_a_time(parx::Comm& world, F&& f) {
  double mine = 0;
  for (int r = 0; r < world.size(); ++r) {
    world.barrier();
    if (r == world.rank()) {
      Stopwatch sw;
      f();
      mine = sw.seconds();
    }
  }
  world.barrier();
  return mine;
}

/// Collective: order-independent digest of the global state (wrapping sum of
/// per-particle hashes of id, position and momentum), the same on every
/// rank.  Empty when a particle was lost or duplicated (count or id sum off),
/// left the unit box, or went non-finite.
std::optional<std::uint64_t> state_digest(parx::Comm& world,
                                          std::span<const core::Particle> local,
                                          std::uint64_t n) {
  std::uint64_t v[4] = {local.size(), 0, 0, 0};  // count, id sum, hash sum, bad
  for (const core::Particle& p : local) {
    v[1] += p.id;
    v[2] += util::Fnv1a64().mix(p.id).mix(p.pos).mix(p.mom).value();
    for (std::size_t a = 0; a < 3; ++a)
      if (!(p.pos[a] >= 0.0 && p.pos[a] < 1.0) || !std::isfinite(p.mom[a])) v[3] = 1;
  }
  world.allreduce_sum(std::span<std::uint64_t>(v, 4));
  if (v[0] != n || v[1] != n * (n - 1) / 2 || v[3] != 0) return std::nullopt;
  return v[2];
}

/// Collective: median relative error |a - a_ref| / |a_ref| of the total
/// acceleration (acc_s + acc_l) over the particles whose id is a multiple of
/// `stride`, against periodic Ewald summation over all particles with the
/// same Plummer softening.  Each rank sums the contributions of its own
/// particles to every sampled target.  The median, not an rms: in the
/// uniform workload a few close pairs dominate any sum of squares, which
/// then moved by 20% from seed to seed.
double force_error(parx::Comm& world, std::span<const core::Particle> local,
                   const ewald::Ewald& ewald, double eps, std::size_t stride) {
  struct Target {
    Vec3 pos, acc;
  };
  std::vector<Target> mine;
  for (const core::Particle& p : local)
    if (p.id % stride == 0) mine.push_back({p.pos, p.acc_s + p.acc_l});
  const auto targets = world.allgatherv(std::span<const Target>(mine));
  const double eps2 = eps * eps;
  std::vector<Vec3> ref(targets.size(), Vec3{});
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (const core::Particle& p : local) {
      const Vec3 x = min_image(p.pos, targets[t].pos);  // field - source
      const double r2 = x.norm2();
      if (r2 == 0) continue;  // the target itself
      const double r = std::sqrt(r2);
      const double s2 = r2 + eps2;
      // pair_acceleration carries an unsoftened Newton core; swap in the
      // softened one the PP kernel uses.
      ref[t] += (ewald.pair_acceleration(x) + x / (r2 * r) - x / (s2 * std::sqrt(s2))) * p.mass;
    }
  }
  world.allreduce(std::span<Vec3>(ref), [](const Vec3& a, const Vec3& b) { return a + b; });
  std::vector<double> rel(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t)
    rel[t] = (targets[t].acc - ref[t]).norm() / ref[t].norm();
  return median(std::move(rel));
}

/// Bytes the allocator has handed out and not taken back, in MB: the
/// program's live heap.  Resident-set figures moved by 10-25% between runs
/// of one seed with the allocator state retained in the per-thread arenas;
/// this count repeats to 0.1%.
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

constexpr const char* kPmRows[] = {"density assignment", "communication", "FFT",
                                   "acceleration on mesh", "force interpolation"};
constexpr std::size_t kNumPmRows = std::size(kPmRows);

/// One replay of a step's layers.  Collective layers carry rank 0's wall
/// time; rank-local layers carry the sum over ranks of their one-at-a-time
/// times (the layer's total work).  Valid on rank 0.
struct Replay {
  double dd_s = 0, ghost_exchange_s = 0, pm_s = 0;
  double ghost_select_s = 0, tree_build_s = 0, walk_s = 0, kernel_s = 0;
  std::array<double, kNumPmRows> pm_rows{};  ///< max over ranks
  double ghost_bytes = 0, ghosts = 0, tree_particles = 0;
  double nodes_visited = 0, interactions = 0, groups = 0, sum_ni = 0, sum_nj = 0;
  double max_rank_interactions = 0;
  double mismatches = 0;  ///< particles whose replayed force differs from the step's
};

/// Collective: replay the layers of the step that produced `sim`'s current
/// state.  Leaves the simulation untouched.
Replay replay_step(parx::Comm& world, const core::ParallelSimulation& sim,
                   const core::ParallelSimConfig& cfg, pm::ParallelPm& pm) {
  const auto local = sim.local();
  const auto& decomp = sim.decomposition();
  const std::size_t n_local = local.size();
  auto pos = core::positions_of(local);
  auto mass = core::masses_of(local);
  Replay out;

  // Domain decomposition: cost-weighted sampling, multisection, routing.
  out.dd_s = timed(world, [&] {
    telemetry::Span span("replay/domain_decomposition");
    std::vector<double> w(n_local);
    for (std::size_t i = 0; i < n_local; ++i) w[i] = local[i].lb_w;
    const auto d = domain::sample_and_decompose_weighted(world, cfg.dims, pos, w,
                                                         cfg.sampling, sim.step_index());
    const auto dest = domain::destinations(d, pos);
    (void)domain::exchange_by_rank<core::Particle>(world, local, dest);
  });

  // Ghost selection (Table I "local tree") against the step's domains.
  tree::GhostExport ex;
  const auto boxes = decomp.boxes();
  const double select_s = one_rank_at_a_time(world, [&] {
    telemetry::Span span("replay/ghost_select");
    ex = tree::select_ghosts(pos, mass, boxes, world.rank(), cfg.rcut());
  });
  double ghost_bytes = 0;
  for (const auto& v : ex.pos) ghost_bytes += static_cast<double>(v.size() * sizeof(Vec3));
  for (const auto& v : ex.mass) ghost_bytes += static_cast<double>(v.size() * sizeof(double));

  std::vector<std::vector<Vec3>> gpos;
  std::vector<std::vector<double>> gmass;
  out.ghost_exchange_s = timed(world, [&] {
    telemetry::Span span("replay/ghost_exchange");
    gpos = world.alltoallv(std::move(ex.pos));
    gmass = world.alltoallv(std::move(ex.mass));
  });
  // Locals, then ghosts in source-rank order: the step's concatenation.
  for (std::size_t r = 0; r < gpos.size(); ++r) {
    pos.insert(pos.end(), gpos[r].begin(), gpos[r].end());
    mass.insert(mass.end(), gmass[r].begin(), gmass[r].end());
  }

  std::optional<tree::Octree> octree;
  const double build_s = one_rank_at_a_time(world, [&] {
    telemetry::Span span("replay/tree_build");
    octree.emplace(pos, mass, tree::OctreeParams{cfg.leaf_capacity, 21});
  });

  tree::TraversalParams tp;
  tp.theta = cfg.theta;
  tp.rcut = cfg.rcut();
  tp.ncrit = cfg.ncrit;
  tp.eps2 = cfg.eps * cfg.eps;
  tp.kernel = cfg.kernel;
  std::vector<Vec3> acc(pos.size(), Vec3{});
  tree::TraversalTimes times;
  tree::TraversalStats stats;
  one_rank_at_a_time(world, [&] {
    telemetry::Span span("replay/walk_and_kernel");
    stats = tree::tree_accelerations_targets(*octree, tp, n_local, acc, {}, &times);
  });
  double mismatches = 0;
  for (std::size_t i = 0; i < n_local; ++i)
    if (!(acc[i] == local[i].acc_s)) ++mismatches;

  // PM cycle on the mesh regions the step's pipelined cycle used: the
  // domain box grown to cover the drifted positions.
  Box box = decomp.box_of(world.rank());
  for (std::size_t i = 0; i < n_local; ++i)
    for (std::size_t a = 0; a < 3; ++a) {
      box.lo[a] = std::min(box.lo[a], pos[i][a]);
      box.hi[a] = std::max(box.hi[a], pos[i][a]);
    }
  pm.update_domain(box);
  std::vector<Vec3> accl(n_local, Vec3{});
  TimingBreakdown pm_rows;
  out.pm_s = timed(world, [&] {
    telemetry::Span span("replay/pm");
    pm.accelerations(std::span<const Vec3>(pos.data(), n_local),
                     std::span<const double>(mass.data(), n_local), accl, &pm_rows);
  });
  for (std::size_t i = 0; i < n_local; ++i)
    if (!(accl[i] == local[i].acc_l)) ++mismatches;

  double sums[] = {select_s,
                   build_s,
                   times.traverse_s,
                   times.force_s,
                   ghost_bytes,
                   static_cast<double>(pos.size() - n_local),
                   static_cast<double>(pos.size()),
                   static_cast<double>(stats.nodes_visited),
                   static_cast<double>(stats.interactions),
                   static_cast<double>(stats.ngroups),
                   static_cast<double>(stats.sum_ni),
                   static_cast<double>(stats.sum_nj),
                   mismatches};
  world.allreduce_sum(std::span<double>(sums));
  std::array<double, kNumPmRows + 1> maxes{};
  for (std::size_t k = 0; k < kNumPmRows; ++k) maxes[k] = pm_rows.get(kPmRows[k]);
  maxes[kNumPmRows] = static_cast<double>(stats.interactions);
  world.allreduce(std::span<double>(maxes), [](double a, double b) { return a > b ? a : b; });

  out.ghost_select_s = sums[0];
  out.tree_build_s = sums[1];
  out.walk_s = sums[2];
  out.kernel_s = sums[3];
  out.ghost_bytes = sums[4];
  out.ghosts = sums[5];
  out.tree_particles = sums[6];
  out.nodes_visited = sums[7];
  out.interactions = sums[8];
  out.groups = sums[9];
  out.sum_ni = sums[10];
  out.sum_nj = sums[11];
  out.mismatches = sums[12];
  std::copy_n(maxes.begin(), kNumPmRows, out.pm_rows.begin());
  out.max_rank_interactions = maxes[kNumPmRows];
  return out;
}

/// What rank 0 collects over a run.
struct RunResult {
  std::vector<double> setup_s, step_s, ckpt_s, heap_mb;
  std::vector<Replay> replays;
  double force_err = INFINITY;
  bool restore_ok = false;
  std::uint64_t steps = 0, failed_steps = 0, checkpoints = 0;
};

RunResult run(const Options& opt) {
  const Workload& w = *opt.workload;
  const core::ParallelSimConfig cfg = make_config(w);
  const auto particles = make_particles(w, opt.seed);
  ewald::EwaldParams ep;
  ep.table_n = 40;
  const ewald::Ewald ewald(ep);
  const std::string ckpt_dir = opt.out + "/ckpt_" + w.name;
  std::filesystem::remove_all(ckpt_dir);

  RunResult res;
  parx::Runtime rt(w.dims[0] * w.dims[1] * w.dims[2]);
  rt.run([&](parx::Comm& world) {
    const bool root = world.rank() == 0;
    std::optional<std::uint64_t> reference;
    std::optional<core::ParallelSimulation> sim;
    Stopwatch clock;
    for (int episode = 0;; ++episode) {
      const bool warmup = episode == 0;
      if (episode == 1) clock.restart();
      if (!warmup) {
        int go = root && clock.seconds() < opt.seconds ? 1 : 0;
        go = world.allreduce_max(go);
        if (!go) break;
      }

      sim.reset();
      telemetry::clear_trace();  // keep span buffers from growing with run length
      if (root) std::filesystem::remove_all(ckpt_dir);
      std::vector<core::Particle> mine = root ? particles : std::vector<core::Particle>{};
      const double setup = timed(world, [&] { sim.emplace(world, cfg, std::move(mine), 0.0); });
      if (warmup) {
        const double err = force_error(world, sim->local(), ewald, cfg.eps,
                                       std::max<std::size_t>(1, w.n / kForceSamples));
        if (root) res.force_err = err;
      }

      // Checkpoint after every step, keeping the newest only: the cadence of
      // a run that must survive losing any one step.
      for (int s = 1; s <= kStepsPerEpisode; ++s) {
        const double t = timed(world, [&] { sim->step(kDt * s); });
        const double c = timed(world, [&] { sim->checkpoint(ckpt_dir, 1); });
        if (root && !warmup) {
          res.step_s.push_back(t);
          res.ckpt_s.push_back(c);
          res.heap_mb.push_back(heap_mb());
        }
      }

      if (warmup) {
        auto rcfg = cfg;
        rcfg.restore_from = ckpt_dir;
        core::ParallelSimulation back(world, rcfg, {}, 0.0);
        const auto a = sim->local();
        const auto b = back.local();
        int same = a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
        same = world.allreduce_min(same);
        if (root) res.restore_ok = same != 0;
      }

      const auto digest = state_digest(world, sim->local(), w.n);
      if (root) {
        if (warmup) reference = digest;
        res.steps += kStepsPerEpisode;
        res.checkpoints += kStepsPerEpisode;
        if (!digest || digest != reference) res.failed_steps += kStepsPerEpisode;
        if (!warmup) res.setup_s.push_back(setup);
      }
    }

    if (opt.trace) {
      telemetry::clear_trace();
      pm::ParallelPm pm(world, cfg.pm);
      for (int r = 0; r < kReplays; ++r) {
        const Replay rep = replay_step(world, *sim, cfg, pm);
        if (root) res.replays.push_back(rep);
      }
    }
  });
  std::filesystem::remove_all(ckpt_dir);
  return res;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

template <class F>
double replay_median(const RunResult& r, F&& f) {
  std::vector<double> v;
  for (const auto& rep : r.replays) v.push_back(f(rep));
  return median(v);
}

std::vector<Metric> end_to_end_metrics(const RunResult& r) {
  return {
      {"step_ms", median(r.step_s) * 1e3, "ms"},
      {"setup_s", median(r.setup_s), "s"},
      {"heap_mb", median(r.heap_mb), "MB"},
      {"ckpt_write_ms", median(r.ckpt_s) * 1e3, "ms"},
      {"force_err", r.force_err, "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const RunResult& r, const Workload& w) {
  auto med = [&](auto f) { return replay_median(r, f); };
  const double ckpt_bytes = static_cast<double>(w.n * sizeof(core::Particle));
  std::vector<Metric> m = {
      {"dd_ms", med([](const Replay& x) { return x.dd_s * 1e3; }), "ms"},
      {"ghost_select_ms", med([](const Replay& x) { return x.ghost_select_s * 1e3; }), "ms"},
      {"ghost_exchange_ms", med([](const Replay& x) { return x.ghost_exchange_s * 1e3; }), "ms"},
      {"ghost_mb", med([](const Replay& x) { return x.ghost_bytes / 1e6; }), "MB"},
      {"ghosts", med([](const Replay& x) { return x.ghosts; }), "count"},
      {"tree_build_ms", med([](const Replay& x) { return x.tree_build_s * 1e3; }), "ms"},
      {"tree_build_mpart_s",
       med([](const Replay& x) { return x.tree_particles / x.tree_build_s / 1e6; }), "Mpart/s"},
      {"walk_ms", med([](const Replay& x) { return x.walk_s * 1e3; }), "ms"},
      {"walk_mnodes_s", med([](const Replay& x) { return x.nodes_visited / x.walk_s / 1e6; }),
       "Mnodes/s"},
      {"kernel_ms", med([](const Replay& x) { return x.kernel_s * 1e3; }), "ms"},
      {"kernel_gflops",
       med([](const Replay& x) {
         return x.interactions * pp::kFlopsPerInteraction / x.kernel_s / 1e9;
       }),
       "Gflop/s"},
      {"interactions", med([](const Replay& x) { return x.interactions; }), "count"},
      {"mean_ni", med([](const Replay& x) { return x.sum_ni / x.groups; }), "count"},
      {"mean_nj", med([](const Replay& x) { return x.sum_nj / x.groups; }), "count"},
      {"work_imbalance",
       med([&](const Replay& x) {
         return x.max_rank_interactions * (w.dims[0] * w.dims[1] * w.dims[2]) / x.interactions;
       }),
       "ratio"},
      {"pm_ms", med([](const Replay& x) { return x.pm_s * 1e3; }), "ms"},
      {"pm_assign_ms", med([](const Replay& x) { return x.pm_rows[0] * 1e3; }), "ms"},
      {"pm_comm_ms", med([](const Replay& x) { return x.pm_rows[1] * 1e3; }), "ms"},
      {"pm_fft_ms", med([](const Replay& x) { return x.pm_rows[2] * 1e3; }), "ms"},
      {"pm_mesh_accel_ms", med([](const Replay& x) { return x.pm_rows[3] * 1e3; }), "ms"},
      {"pm_interp_ms", med([](const Replay& x) { return x.pm_rows[4] * 1e3; }), "ms"},
      {"ckpt_mb_s", ckpt_bytes / median(r.ckpt_s) / 1e6, "MB/s"},
  };
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(opt.out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.out.c_str(), ec.message().c_str());
    return 1;
  }

  RunResult r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  double mismatches = 0;
  for (const auto& rep : r.replays) mismatches += rep.mismatches;
  const bool correct = r.failed_steps == 0 && r.restore_ok && r.force_err < kMaxForceError &&
                       mismatches == 0 && (!opt.trace || !r.replays.empty());
  std::fprintf(stderr,
               "%s: %llu steps (%zu timed), force_err %.4g, restore %s, replay mismatches %.0f\n",
               opt.workload->name, static_cast<unsigned long long>(r.steps), r.step_s.size(),
               r.force_err, r.restore_ok ? "ok" : "FAILED", mismatches);

  if (opt.trace) {
    const std::string path = opt.out + "/trace_" + opt.workload->name + ".json";
    if (!telemetry::write_chrome_trace(path))
      std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

  const auto metrics = opt.trace ? per_layer_metrics(r, *opt.workload) : end_to_end_metrics(r);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.steps + r.checkpoints),
              static_cast<unsigned long long>(r.failed_steps + (r.restore_ok ? 0 : 1)));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", metrics[i].name);
    if (std::isfinite(metrics[i].value))
      std::printf("%.17g", metrics[i].value);
    else
      std::printf("null");  // not JSON-representable; the wrapper rejects it
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
