// Reproduction of the paper's §I claim: for the same level of accuracy the
// TreePM method needs significantly fewer operations than the pure tree
// method, because the distant-cell contributions that dominate the tree's
// force error are handled exactly (by FFT) in TreePM -- so TreePM can run
// a *looser* effective accuracy parameter.  Also checks the paper's
// observation that the cutoff shortens the interaction lists (<Nj> ~ 2000
// in the paper's run vs ~6x longer for the open-boundary pure tree of the
// 2009 GPU winner).
//
// Methodology: each method is measured against its own exact force law --
// the pure tree (an open-boundary method, as run by the 1990s Gordon Bell
// winners) against open-boundary direct summation, TreePM against the
// periodic Ewald sum.  The comparison of interaction counts at matched
// *approximation error* is then method-fair.

#include <cstdio>
#include <iostream>

#include "core/direct_force.hpp"
#include "core/parallel_sim.hpp"
#include "core/particle.hpp"
#include "core/tree_force.hpp"
#include "ewald/ewald.hpp"
#include "parx/runtime.hpp"
#include "pm/pm_solver.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace greem;

namespace {

double rms_error(const std::vector<Vec3>& got, const std::vector<Vec3>& ref) {
  std::vector<double> rel;
  rel.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    rel.push_back((got[i] - ref[i]).norm() / std::max(ref[i].norm(), 1e-12));
  return rms(rel);
}

/// TreePM force of the driver: a one-rank simulation's initial total
/// acceleration (acc_s + acc_l) in `acc`, indexed like `ps`, and its PP
/// traversal statistics.
tree::TraversalStats treepm_force(const std::vector<core::Particle>& ps, double theta,
                                  double eps, std::vector<Vec3>& acc) {
  core::ParallelSimConfig cfg;
  cfg.pm.n_mesh = 32;
  cfg.theta = theta;
  cfg.ncrit = 100;
  cfg.eps = eps;
  tree::TraversalStats stats;
  acc.assign(ps.size(), Vec3{});
  parx::run_ranks(1, [&](parx::Comm& world) {
    const core::ParallelSimulation sim(world, cfg, ps, 0.0);
    for (const auto& p : sim.local()) acc[p.id] = p.acc_s + p.acc_l;
    stats = sim.last_step().pp_stats;
  });
  return stats;
}

}  // namespace

int main() {
  const std::size_t n = 3000;
  const double eps = 1e-4;
  auto particles = core::clustered_particles(n, 1.0, 4, 0.6, 0.04, 5);
  const auto pos = core::positions_of(particles);
  const auto mass = core::masses_of(particles);

  // Exact references: Ewald (periodic) for TreePM, direct sum (open) for
  // the pure tree.
  ewald::EwaldParams ep;
  ep.table_n = 48;
  const ewald::Ewald ew(ep);
  std::vector<Vec3> exact_periodic(n), exact_open(n);
  ew.accelerations(pos, mass, exact_periodic, eps * eps);
  core::direct_newton(pos, mass, exact_open, eps * eps);

  std::printf("TreePM vs pure tree at matched approximation error\n");
  std::printf("(N = %zu clustered; each method vs its own exact force law;\n", n);
  std::printf(" TreePM interactions are PP-only -- the PM adds a fixed\n");
  std::printf(" N_PM^3 log N_PM cost shared by every theta)\n\n");

  TextTable t;
  t.header({"method", "theta", "rms err", "interactions", "<Nj>"});

  for (double theta : {0.7, 0.5, 0.35, 0.2}) {
    std::vector<Vec3> acc;
    const auto stats = treepm_force(particles, theta, eps, acc);
    t.row({"TreePM", TextTable::num(theta, 2),
           TextTable::num(rms_error(acc, exact_periodic), 3),
           TextTable::num(static_cast<double>(stats.interactions), 4),
           TextTable::num(stats.mean_nj(), 4)});
  }
  // PM-only baseline: the error floor if the tree part were dropped
  // entirely (the method the 1980s cosmology codes used; resolution
  // limited by the mesh).
  {
    pm::PmSolver pm_only({32, 2.0 / 32.0, pm::Scheme::kTSC, 2, 1.0});
    std::vector<Vec3> acc(n);
    pm_only.accelerations(pos, mass, acc);
    t.row({"PM only", "-", TextTable::num(rms_error(acc, exact_periodic), 3), "0", "0"});
  }

  for (bool quadrupole : {false, true}) {
    for (double theta : {0.7, 0.5, 0.35, 0.2}) {
      core::TreeForceParams params;
      params.theta = theta;
      params.ncrit = 100;
      params.eps2 = eps * eps;
      params.quadrupole = quadrupole;
      std::vector<Vec3> acc(n);
      const auto stats = core::tree_newton(pos, mass, acc, params);
      t.row({quadrupole ? "tree+quad" : "pure tree", TextTable::num(theta, 2),
             TextTable::num(rms_error(acc, exact_open), 3),
             TextTable::num(static_cast<double>(stats.interactions), 4),
             TextTable::num(stats.mean_nj(), 4)});
    }
  }
  t.print(std::cout);
  std::printf("\nShape check vs the paper: the TreePM error saturates at the\n");
  std::printf("mesh split error even for loose theta (distant contributions\n");
  std::printf("are exact via FFT), so a moderate accuracy parameter suffices;\n");
  std::printf("the pure tree must tighten theta -- and grow its interaction\n");
  std::printf("count and <Nj> several-fold -- to match it.\n");

  // The second, N-dependent advantage: the cutoff bounds the interaction
  // list, while the pure tree's <Nj> keeps its log N growth (the paper:
  // "the log N term for our simulation is smaller than that of Hamada et
  // al. (2009) because of the cutoff"; <Nj> ~ 2300 vs ~6x that).
  std::printf("\n<Nj> growth with N at theta = 0.5 (TreePM list stays bounded):\n\n");
  TextTable t2;
  t2.header({"N", "TreePM <Nj>", "pure tree <Nj>", "ratio"});
  for (std::size_t nn : {2000ul, 8000ul, 32000ul, 128000ul}) {
    auto ps = core::clustered_particles(nn, 1.0, 4, 0.6, 0.04, 5);
    const auto p2 = core::positions_of(ps);
    const auto m2 = core::masses_of(ps);
    std::vector<Vec3> acc(nn);

    const auto s1 = treepm_force(ps, 0.5, eps, acc);

    core::TreeForceParams pt;
    pt.theta = 0.5;
    pt.ncrit = 100;
    pt.eps2 = eps * eps;
    std::fill(acc.begin(), acc.end(), Vec3{});
    const auto s2 = core::tree_newton(p2, m2, acc, pt);
    t2.row({TextTable::num((long long)nn), TextTable::num(s1.mean_nj(), 4),
            TextTable::num(s2.mean_nj(), 4), TextTable::num(s2.mean_nj() / s1.mean_nj(), 3)});
  }
  t2.print(std::cout);
  return 0;
}
