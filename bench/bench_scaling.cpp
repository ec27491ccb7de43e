// Reproduction of §III-B: strong scaling of the full TreePM step.  The
// paper reports 173.8 s/step on 24576 nodes and 60.2 s/step on 82944
// nodes for the same N = 10240^3 -- a 2.89x speedup on 3.375x the nodes
// (86% parallel efficiency), with the PP part scaling near-ideally and
// the FFT part flat (fixed 4096 FFT processes on both).
//
// Here the same code runs a fixed workload over increasing simulated rank
// counts.  Wall-clock on a single host cannot show real speedup (the ranks
// share one CPU), so the scaling metric is the per-rank *work*: the
// maximum over ranks of PP interactions per step (the quantity the kernel
// time is proportional to on real hardware), plus the flat-FFT check.

// In addition to the rank-scaling table, main() measures intra-rank PP
// thread scaling over the persistent task pool against a spawn-per-call
// reference (threads created for every loop with static chunking -- the
// pre-pool behavior), and records both in BENCH_scaling.json.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/parallel_sim.hpp"
#include "parx/runtime.hpp"
#include "pp/kernels.hpp"
#include "telemetry/json.hpp"
#include "tree/octree.hpp"
#include "tree/traversal.hpp"
#include "util/parallel_for.hpp"
#include "util/table.hpp"

using namespace greem;

namespace {

struct ScalingPoint {
  int ranks = 0;
  std::size_t n_particles = 0;
  double max_interactions = 0;  ///< busiest rank, per step
  double sum_interactions = 0;
  double fft_seconds = 0;
  double balance = 0;  ///< max/mean interactions
  // Table-I-style phase shares of the last step (phase totals are the max
  // over ranks, the paper's convention; shares are of their sum).
  double pp_share = 0, pm_share = 0, dd_share = 0;
  double pp_imbalance = 0;  ///< max/mean traversal+force seconds
};

ScalingPoint run(std::array<int, 3> dims, const std::vector<core::Particle>& particles) {
  const int p = dims[0] * dims[1] * dims[2];
  core::ParallelSimConfig cfg;
  cfg.dims = dims;
  cfg.pm.n_mesh = 32;
  cfg.pm.conversion.method = pm::MeshConversion::kRelay;
  cfg.pm.conversion.n_groups = std::max(1, p / 32);
  cfg.theta = 0.5;
  cfg.ncrit = 100;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 20000;
  // Deterministic cost weighting so the campaign's trend lines are
  // reproducible run to run (same contract as the bitwise CI paths).
  cfg.cost_metric = core::CostMetric::kInteractions;

  ScalingPoint out;
  out.ranks = p;
  out.n_particles = particles.size();
  std::mutex mu;
  parx::run_ranks(p, [&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(0.001);  // warmup: boundaries settle
    sim.step(0.002);
    const double mine = static_cast<double>(sim.last_step().pp_stats.interactions);
    const double maxi = world.allreduce_max(mine);
    const double sum = world.allreduce_sum(mine);
    const double fft = world.allreduce_max(sim.last_step().pm.get("FFT"));
    const double pp_total = world.allreduce_max(sim.last_step().pp.total());
    const double pm_total = world.allreduce_max(sim.last_step().pm.total());
    const double dd_total = world.allreduce_max(sim.last_step().dd.total());
    const double pp_local = sim.last_step().pp.get("tree traversal") +
                            sim.last_step().pp.get("force calculation");
    const double pp_max = world.allreduce_max(pp_local);
    const double pp_mean = world.allreduce_sum(pp_local) / static_cast<double>(p);
    if (world.rank() == 0) {
      std::lock_guard lock(mu);
      out.max_interactions = maxi;
      out.sum_interactions = sum;
      out.fft_seconds = fft;
      out.balance = maxi / (sum / p);
      const double denom = pp_total + pm_total + dd_total;
      if (denom > 0) {
        out.pp_share = pp_total / denom;
        out.pm_share = pm_total / denom;
        out.dd_share = dd_total / denom;
      }
      out.pp_imbalance = pp_mean > 0 ? pp_max / pp_mean : 0.0;
    }
  });
  return out;
}

void json_scaling_point(telemetry::JsonWriter& jw, const ScalingPoint& pt, double eff) {
  jw.begin_object();
  jw.field("ranks", pt.ranks);
  jw.field("n_particles", pt.n_particles);
  jw.field("max_interactions", pt.max_interactions);
  jw.field("sum_interactions", pt.sum_interactions);
  jw.field("parallel_eff", eff);
  jw.field("balance", pt.balance);
  jw.field("fft_seconds", pt.fft_seconds);
  jw.field("pp_share", pt.pp_share);
  jw.field("pm_share", pt.pm_share);
  jw.field("dd_share", pt.dd_share);
  jw.field("pp_imbalance", pt.pp_imbalance);
  jw.end_object();
}

// ------------------------------------------------------- thread scaling --

struct ThreadPoint {
  std::size_t threads = 0;
  double seconds = 0;
  double speedup = 0;     ///< t(1) / t(T)
  double efficiency = 0;  ///< speedup / T
};

/// One full PP pass through the production path (pool-scheduled traversal).
double pp_pool_pass(const tree::Octree& tree, const tree::TraversalParams& params,
                    std::vector<Vec3>& acc) {
  acc.assign(tree.num_particles(), Vec3{});
  const auto t0 = std::chrono::steady_clock::now();
  tree::tree_accelerations(tree, params, acc);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The same PP work scheduled the pre-pool way: fresh std::threads per
/// call, static contiguous group chunks (no stealing, no reuse).
double pp_spawn_pass(const tree::Octree& tree, const tree::TraversalParams& params,
                     std::vector<Vec3>& acc, std::size_t n_threads) {
  acc.assign(tree.num_particles(), Vec3{});
  const auto groups = tree.groups(params.ncrit);
  const auto t0 = std::chrono::steady_clock::now();
  auto worker = [&](std::size_t lo, std::size_t hi) {
    pp::InteractionList list;
    std::vector<Vec3> group_acc;
    std::vector<std::uint32_t> members;
    tree::WalkScratch scratch;
    const Vec3 home{};
    for (std::size_t gi = lo; gi < hi; ++gi) {
      const tree::TreeNode g = tree.node(groups[gi]);
      // Every particle is a target: the group's targets are its cell range.
      members.resize(g.count);
      std::iota(members.begin(), members.end(), g.first);
      list.clear();
      tree::WalkSink sink{&list};
      tree::build_interaction_list(tree, members, params, {&home, 1}, sink, scratch);
      list.pad4();
      group_acc.assign(g.count, Vec3{});
      pp::pp_kernel_phantom(tree.sorted_pos().subspan(g.first, g.count), group_acc, list,
                            params.rcut, params.eps2);
      for (std::uint32_t i = 0; i < g.count; ++i)
        acc[tree.original_index(g.first + i)] += group_acc[i];
    }
  };
  const std::size_t chunk = (groups.size() + n_threads - 1) / n_threads;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < n_threads; ++t) {
    const std::size_t lo = std::min(t * chunk, groups.size());
    const std::size_t hi = std::min(lo + chunk, groups.size());
    if (lo < hi) ts.emplace_back(worker, lo, hi);
  }
  for (auto& t : ts) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

template <typename Pass>
std::vector<ThreadPoint> thread_scan(const std::vector<std::size_t>& counts, Pass pass) {
  std::vector<ThreadPoint> out;
  double t1 = 0;
  for (const std::size_t T : counts) {
    // Median of 5 after a discarded warmup (cold caches, thread spin-up):
    // a robust central value rather than a lucky best-of-N.
    (void)pass(T);
    std::array<double, 5> s;
    for (auto& v : s) v = pass(T);
    std::sort(s.begin(), s.end());
    const double med = s[2];
    if (T == 1) t1 = med;
    out.push_back({T, med, t1 / med, t1 / med / static_cast<double>(T)});
  }
  return out;
}

void json_thread_points(telemetry::JsonWriter& jw, std::string_view key,
                        const std::vector<ThreadPoint>& pts) {
  jw.key(key).begin_array();
  for (const ThreadPoint& pt : pts) {
    jw.begin_object();
    jw.field("threads", pt.threads);
    jw.field("seconds", pt.seconds);
    jw.field("speedup", pt.speedup);
    jw.field("efficiency", pt.efficiency);
    jw.end_object();
  }
  jw.end_array();
}

}  // namespace

int main() {
  const std::size_t n = 32768;
  auto particles = core::clustered_particles(n, 1.0, 6, 0.7, 0.03, 31415);

  // -- intra-rank PP thread scaling: persistent pool vs spawn-per-call --
  std::printf("Intra-rank PP thread scaling (N = %zu, phantom kernel '%s').\n", n,
              pp::phantom_variant_name(pp::phantom_dispatch()));
  const auto pos = core::positions_of(particles);
  const auto mass = core::masses_of(particles);
  const tree::Octree tr(pos, mass);
  tree::TraversalParams tp;
  tp.theta = 0.5;
  tp.ncrit = 100;
  tp.eps2 = 1e-6;
  tp.rcut = 0.1;
  std::vector<Vec3> acc;
  const std::vector<std::size_t> counts{1, 2, 4, 8};
  const auto pool_pts = thread_scan(counts, [&](std::size_t T) {
    set_num_threads(T);
    return pp_pool_pass(tr, tp, acc);
  });
  set_num_threads(1);  // keep the spawn reference's threads unopposed
  const auto spawn_pts =
      thread_scan(counts, [&](std::size_t T) { return pp_spawn_pass(tr, tp, acc, T); });

  TextTable tt;
  tt.header({"threads", "pool (s)", "pool eff", "spawn (s)", "spawn eff"});
  for (std::size_t i = 0; i < pool_pts.size(); ++i)
    tt.row({TextTable::num((long long)pool_pts[i].threads),
            TextTable::num(pool_pts[i].seconds, 4), TextTable::num(pool_pts[i].efficiency, 3),
            TextTable::num(spawn_pts[i].seconds, 4),
            TextTable::num(spawn_pts[i].efficiency, 3)});
  tt.print(std::cout);
  std::printf("\n");

  std::printf("Strong scaling of the distributed TreePM step (N = %zu fixed).\n", n);
  std::printf("Metric: busiest rank's PP interactions per step -- the kernel-time\n");
  std::printf("proxy on real hardware (all ranks share one CPU here).\n\n");

  TextTable t;
  t.header({"ranks", "max inter/rank", "ideal", "parallel eff", "balance max/mean",
            "FFT (s)"});
  double base = 0;
  int base_ranks = 0;
  std::vector<ScalingPoint> rank_pts;
  std::vector<double> rank_eff;
  for (const auto dims : std::vector<std::array<int, 3>>{{1, 1, 1},
                                                         {2, 1, 1},
                                                         {2, 2, 1},
                                                         {2, 2, 2},
                                                         {4, 2, 2},
                                                         {4, 4, 2},
                                                         {4, 4, 4},
                                                         {8, 4, 4},
                                                         {8, 8, 4}}) {
    const auto pt = run(dims, particles);
    if (base == 0) {
      base = pt.max_interactions;
      base_ranks = pt.ranks;
    }
    const double ideal = base * base_ranks / pt.ranks;
    rank_pts.push_back(pt);
    rank_eff.push_back(ideal / pt.max_interactions);
    t.row({TextTable::num((long long)pt.ranks), TextTable::num(pt.max_interactions, 4),
           TextTable::num(ideal, 4), TextTable::num(ideal / pt.max_interactions, 3),
           TextTable::num(pt.balance, 3), TextTable::num(pt.fft_seconds, 3)});
  }
  t.print(std::cout);

  // -- weak scaling: fixed particles per rank, ranks 8 -> 256 ------------
  // The paper's trillion-body configuration is weak-scaled (fixed N per
  // node); here the per-rank share stays constant while the rank grid
  // grows to a few hundred simulated ranks.  The interesting trend lines
  // are the busiest rank's interactions (flat = ideal), the PP time
  // imbalance under load-balance v2, and the Table-I phase shares.
  constexpr std::size_t kWeakPerRank = 2048;
  std::printf("\nWeak scaling (N = %zu per rank).\n\n", kWeakPerRank);
  TextTable wt;
  wt.header({"ranks", "N", "max inter/rank", "balance", "pp imb", "pp/pm/dd shares"});
  std::vector<ScalingPoint> weak_pts;
  for (const auto dims : std::vector<std::array<int, 3>>{
           {2, 2, 2}, {4, 2, 2}, {4, 4, 2}, {4, 4, 4}, {8, 4, 4}, {8, 8, 4}}) {
    const int p = dims[0] * dims[1] * dims[2];
    auto wparticles = core::clustered_particles(kWeakPerRank * static_cast<std::size_t>(p),
                                                1.0, 6, 0.7, 0.03, 31415);
    const auto pt = run(dims, wparticles);
    weak_pts.push_back(pt);
    char shares[64];
    std::snprintf(shares, sizeof shares, "%.2f/%.2f/%.2f", pt.pp_share, pt.pm_share,
                  pt.dd_share);
    wt.row({TextTable::num((long long)pt.ranks), TextTable::num((long long)pt.n_particles),
            TextTable::num(pt.max_interactions, 4), TextTable::num(pt.balance, 3),
            TextTable::num(pt.pp_imbalance, 3), shares});
  }
  wt.print(std::cout);

  if (std::ofstream os("BENCH_scaling.json"); os) {
    telemetry::JsonWriter jw(os);
    jw.begin_object();
    telemetry::write_meta(
        jw, telemetry::RunMeta::collect("scaling",
                                        pp::phantom_variant_name(pp::phantom_dispatch())));
    jw.key("pp_thread_scaling").begin_object();
    jw.field("n_particles", n);
    jw.field("kernel", pp::phantom_variant_name(pp::phantom_dispatch()));
    jw.field("hardware_concurrency", std::thread::hardware_concurrency());
    json_thread_points(jw, "pool", pool_pts);
    json_thread_points(jw, "spawn_per_call_reference", spawn_pts);
    const double gain8 = spawn_pts.back().efficiency > 0
                             ? pool_pts.back().efficiency / spawn_pts.back().efficiency
                             : 0.0;
    jw.field("pool_vs_spawn_efficiency_8t", gain8);
    jw.end_object();
    jw.key("rank_scaling").begin_array();
    for (std::size_t i = 0; i < rank_pts.size(); ++i)
      json_scaling_point(jw, rank_pts[i], rank_eff[i]);
    jw.end_array();
    jw.key("weak_scaling").begin_object();
    jw.field("particles_per_rank", kWeakPerRank);
    jw.key("points").begin_array();
    for (const auto& pt : weak_pts) {
      // Weak-scaling efficiency: base point's per-rank work over this one's.
      const double eff =
          pt.max_interactions > 0 ? weak_pts.front().max_interactions / pt.max_interactions
                                  : 0.0;
      json_scaling_point(jw, pt, eff);
    }
    jw.end_array();
    jw.end_object();
    jw.end_object();
    os << "\n";
    std::printf("\nwrote BENCH_scaling.json\n");
  }
  std::printf("\nShape check vs the paper: parallel efficiency stays high\n");
  std::printf("(the paper's 24576 -> 82944 nodes keeps 86%%), the sampling\n");
  std::printf("method holds max/mean interaction balance near 1 (Table I:\n");
  std::printf("\"near ideal load balance\"), and the FFT column stays flat\n");
  std::printf("because the 1-D slab FFT uses a fixed number of processes.\n");
  return 0;
}
