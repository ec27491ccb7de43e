// Distributed TreePM driver tests: a multi-rank run must agree with the
// one-rank run (the serial case of the same driver), conserve particles
// and momentum, balance load, and produce the Table-I style reports.
// Ground-truth checks of the driver (Ewald forces, energy conservation)
// live in core_test.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>

#include "ckpt/checkpoint.hpp"
#include "ckpt/recovery.hpp"
#include "core/parallel_sim.hpp"
#include "parx/fault.hpp"
#include "parx/runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace greem::core {
namespace {

std::vector<Particle> with_velocities(std::vector<Particle> ps, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& p : ps) p.mom = {rng.normal() * 0.2, rng.normal() * 0.2, rng.normal() * 0.2};
  return ps;
}

ParallelSimConfig test_config(std::array<int, 3> dims) {
  ParallelSimConfig cfg;
  cfg.dims = dims;
  cfg.pm.n_mesh = 16;
  cfg.theta = 0.3;
  cfg.ncrit = 32;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 2000;
  return cfg;
}

/// Run the parallel sim for `nsteps` and return all particles sorted by id.
std::vector<Particle> run_parallel(std::array<int, 3> dims, std::vector<Particle> initial,
                                   int nsteps, double dt,
                                   pm::MeshConversion method = pm::MeshConversion::kDirect,
                                   int n_groups = 1) {
  const int p = dims[0] * dims[1] * dims[2];
  std::mutex mu;
  std::vector<Particle> collected;
  parx::run_ranks(p, [&](parx::Comm& world) {
    // Rank 0 starts with everything; the first decomposition spreads it.
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    auto cfg = test_config(dims);
    cfg.pm.conversion.method = method;
    cfg.pm.conversion.n_groups = n_groups;
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= nsteps; ++s) sim.step(s * dt);
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    collected.insert(collected.end(), loc.begin(), loc.end());
  });
  std::sort(collected.begin(), collected.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return collected;
}

TEST(ParallelSim, ConservesParticles) {
  auto initial = with_velocities(random_uniform_particles(500, 1.0, 1), 2);
  const auto out = run_parallel({2, 2, 1}, initial, 2, 0.005);
  ASSERT_EQ(out.size(), initial.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);
}

TEST(ParallelSim, MatchesSingleRank) {
  // Same particles, same force parameters, same schedule: the 4-rank run
  // must track the 1-rank run to force-error accuracy.
  auto initial = with_velocities(random_uniform_particles(400, 1.0, 3), 4);
  const double dt = 0.004;
  const int nsteps = 3;
  const auto single = run_parallel({1, 1, 1}, initial, nsteps, dt);
  const auto par = run_parallel({2, 2, 1}, initial, nsteps, dt);
  ASSERT_EQ(single.size(), initial.size());
  ASSERT_EQ(par.size(), initial.size());

  std::vector<double> pos_err;
  for (std::size_t i = 0; i < par.size(); ++i) {
    ASSERT_EQ(par[i].id, single[i].id);
    pos_err.push_back(min_image(par[i].pos, single[i].pos).norm());
  }
  // Trajectories diverge only through force-approximation differences
  // (domain-dependent tree-walk grouping); they stay close over few steps.
  EXPECT_LT(percentile(pos_err, 95), 2e-5);
}

TEST(ParallelSim, RelayAndDirectConversionAgree) {
  auto initial = with_velocities(random_uniform_particles(400, 1.0, 5), 6);
  const double dt = 0.004;
  const auto direct = run_parallel({2, 2, 2}, initial, 2, dt, pm::MeshConversion::kDirect);
  const auto relay = run_parallel({2, 2, 2}, initial, 2, dt, pm::MeshConversion::kRelay, 2);
  ASSERT_EQ(direct.size(), relay.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_LT(min_image(direct[i].pos, relay[i].pos).norm(), 1e-10);
    EXPECT_LT((direct[i].mom - relay[i].mom).norm(), 1e-10);
  }
}

TEST(ParallelSim, ConservesMomentum) {
  auto initial = random_uniform_particles(300, 1.0, 7);  // cold start
  const auto out = run_parallel({2, 1, 1}, initial, 3, 0.005);
  Vec3 net{};
  for (const auto& p : out) net += p.mom * p.mass;
  EXPECT_LT(net.norm(), 1e-4);
}

TEST(ParallelSim, ReportsTableOnePhases) {
  auto initial = with_velocities(random_uniform_particles(600, 1.0, 8), 9);
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, test_config({2, 2, 1}), std::move(local), 0.0);
    sim.step(0.005);
    const auto& rep = sim.last_step();
    // Every Table-I row name must be present.
    for (const char* phase : {"density assignment", "communication", "FFT",
                              "acceleration on mesh", "force interpolation"}) {
      EXPECT_GE(rep.pm.get(phase), 0.0) << phase;
      EXPECT_NE(rep.pm.entries().size(), 0u);
    }
    for (const char* phase : {"local tree", "communication", "tree construction",
                              "tree traversal", "force calculation"}) {
      EXPECT_GE(rep.pp.get(phase), 0.0) << phase;
    }
    for (const char* phase : {"sampling method", "particle exchange", "position update"}) {
      EXPECT_GE(rep.dd.get(phase), 0.0) << phase;
    }
    EXPECT_GT(rep.pp_stats.interactions, 0u);
    EXPECT_GT(rep.pp_stats.mean_ni(), 0.0);
    EXPECT_GT(rep.pp_stats.mean_nj(), 0.0);

    // Collective reductions used by the Table-I bench.
    const auto ppmax = allreduce_max(world, rep.pp);
    EXPECT_GE(ppmax.get("force calculation"), rep.pp.get("force calculation"));
    const auto total = allreduce_sum(world, rep.pp_stats);
    EXPECT_GE(total.interactions, rep.pp_stats.interactions);
  });
}

TEST(ParallelSim, LoadBalancerEqualizesClusteredCost) {
  // A strongly clustered distribution on 4 ranks: after a few steps the
  // per-rank force cost must be far better balanced than the particle
  // count under a static uniform grid.
  auto initial = clustered_particles(2000, 1.0, 2, 0.8, 0.03, 10);
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    auto cfg = test_config({4, 1, 1});
    cfg.sampling.target_samples = 4000;
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= 4; ++s) sim.step(s * 0.002);

    // Interactions per rank ~ force cost.
    const double mine = static_cast<double>(sim.last_step().pp_stats.interactions);
    auto all = world.allgatherv(std::span<const double>(&mine, 1));
    if (world.rank() == 0) {
      const auto s = summarize(all);
      EXPECT_LT(s.imbalance(), 2.0);

      // Static uniform decomposition for comparison: count interactions by
      // proxy of particle share in each uniform quarter (the clumps land in
      // few domains, imbalance >> 2).
      std::vector<double> static_counts(4, 0.0);
      for (const auto& p : initial)
        static_counts[std::min<std::size_t>(static_cast<std::size_t>(p.pos.x * 4), 3)] += 1;
      EXPECT_GT(summarize(static_counts).imbalance(), 1.5);
    }
  });
}

TEST(ParallelSim, SingleRankDegeneratesToSerial) {
  auto initial = with_velocities(random_uniform_particles(200, 1.0, 11), 12);
  const auto out = run_parallel({1, 1, 1}, initial, 2, 0.005);
  EXPECT_EQ(out.size(), initial.size());
}

TEST(ParallelSim, StepsAtDefaultZeroSoftening) {
  // eps defaults to 0, so every target meets itself in its own interaction
  // list at r = 0.  That pair must contribute zero, not the non-finite
  // force the sentinel stops a run on.
  const auto initial = with_velocities(random_uniform_particles(300, 1.0, 13), 14);
  for (const std::array<int, 3> dims : {std::array{1, 1, 1}, std::array{2, 2, 1}}) {
    std::atomic<int> finite_ranks{0};
    parx::run_ranks(dims[0] * dims[1] * dims[2], [&](parx::Comm& world) {
      std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
      auto cfg = test_config(dims);
      cfg.eps = ParallelSimConfig{}.eps;
      EXPECT_EQ(cfg.eps, 0.0);
      ParallelSimulation sim(world, cfg, std::move(local), 0.0);
      EXPECT_NO_THROW(for (int s = 1; s <= 3; ++s) sim.step(s * 0.002));
      sim.synchronize();
      bool finite = true;
      for (const Particle& q : sim.local())
        finite = finite && std::isfinite(q.pos.norm()) && std::isfinite(q.mom.norm());
      if (finite) finite_ranks.fetch_add(1);
    });
    EXPECT_EQ(finite_ranks.load(), dims[0] * dims[1] * dims[2]) << dims[0] << "x" << dims[1];
  }
}

TEST(ParallelSim, RejectsMismatchedDims) {
  parx::run_ranks(3, [](parx::Comm& world) {
    EXPECT_THROW(ParallelSimulation(world, test_config({2, 2, 1}), {}, 0.0),
                 std::invalid_argument);
  });
}

TEST(ParallelSim, DefaultConfigFingerprintIsPinned) {
  // Checkpoint manifests record config_fingerprint and a restore refuses a
  // mismatch.  Pinning the default config's digest makes any edit to
  // ParallelSimConfig or to the digest that would stop existing
  // checkpoints from restoring fail here first.
  EXPECT_EQ(config_fingerprint(ParallelSimConfig{}), 0xdfde2c58b76a3c5fULL);
}

// --------------------------------------------- thread-count determinism --

namespace {

/// Run a clustered IC on 8 ranks under `cfg` for `steps` full steps and
/// return the final particles, sorted by id.
std::vector<Particle> clustered_8rank_run(const std::vector<Particle>& initial,
                                          const ParallelSimConfig& cfg, int steps) {
  std::vector<Particle> out;
  std::mutex mu;
  parx::run_ranks(8, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= steps; ++s) sim.step(s * 0.002);
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    out.insert(out.end(), loc.begin(), loc.end());
  });
  std::sort(out.begin(), out.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return out;
}

}  // namespace

TEST(ParallelSim, IsBitwiseDeterministicAcrossThreadCounts) {
  // Every full step -- the decomposition, the ghost exchange, the group
  // walk and the PM cycle -- must give bitwise the same particles whatever
  // the intra-rank thread count is.
  auto initial = with_velocities(clustered_particles(3000, 1.0, 2, 0.8, 0.03, 61), 62);
  auto cfg = test_config({2, 2, 2});
  cfg.sampling.target_samples = 4000;
  const std::size_t hw = num_threads();
  set_num_threads(1);
  const auto serial = clustered_8rank_run(initial, cfg, 3);
  set_num_threads(4);
  const auto threaded = clustered_8rank_run(initial, cfg, 3);
  set_num_threads(hw);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(std::memcmp(&serial[i], &threaded[i], sizeof(Particle)), 0)
        << "thread counts diverged at particle " << i;
  }
}

TEST(ParallelSim, DefaultConfigIsBitwiseDeterministicAcrossThreadCounts) {
  // The default config, not a test one: its sampling weights (lb_w, which
  // every Particle carries and every snapshot and checkpoint stores) are
  // interaction counts, so the whole final state, lb_w included, is the
  // same bytes at any pool size.
  const auto initial = with_velocities(clustered_particles(3000, 1.0, 2, 0.8, 0.03, 63), 64);
  ParallelSimConfig cfg;
  cfg.dims = {2, 2, 2};
  const std::size_t hw = num_threads();
  set_num_threads(1);
  const auto one = clustered_8rank_run(initial, cfg, 2);
  set_num_threads(3);
  const auto three = clustered_8rank_run(initial, cfg, 2);
  set_num_threads(hw);

  ASSERT_EQ(one.size(), initial.size());
  ASSERT_EQ(one.size(), three.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(std::memcmp(&one[i], &three[i], sizeof(Particle)), 0)
        << "thread counts diverged at particle " << one[i].id << " (lb_w " << one[i].lb_w
        << " vs " << three[i].lb_w << ")";
  }
}

// ------------------------------------------------ decomposition cadence --

TEST(ParallelSim, DecomposesOncePerStep) {
  // However many PP cycles a step runs, it decomposes once: k steps
  // advance the decomposition counter (checkpointed as `substep`) by k,
  // on top of the constructor's one.
  const auto initial = with_velocities(random_uniform_particles(400, 1.0, 91), 92);
  constexpr std::uint64_t kSteps = 3;
  for (const int nsub : {2, 4}) {
    const std::string dir = testing::TempDir() + "/dd_cadence_" + std::to_string(nsub);
    std::filesystem::remove_all(dir);
    std::uint64_t at_start = 0, at_end = 0;
    parx::run_ranks(4, [&](parx::Comm& world) {
      std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
      auto cfg = test_config({2, 2, 1});
      cfg.nsub = nsub;
      ParallelSimulation sim(world, cfg, std::move(local), 0.0);
      // Rank 0 commits the manifest, so it reads it back.
      auto substep = [&](std::uint64_t& out) {
        sim.checkpoint(dir, 0);
        if (world.rank() == 0) out = ckpt::read_manifest(*ckpt::find_latest(dir))->state.substep;
      };
      substep(at_start);
      for (std::uint64_t s = 1; s <= kSteps; ++s) sim.step(static_cast<double>(s) * 0.004);
      substep(at_end);
    });
    EXPECT_EQ(at_start, 1u) << "nsub " << nsub;
    EXPECT_EQ(at_end - at_start, kSteps) << "nsub " << nsub;
  }
}

TEST(ParallelSim, DecompositionFaultFiresOnceAndRollsBack) {
  // A rank abort aimed at the decomposition phase of step 2 hits the
  // step's one decomposition: it fires once, one rollback retries the
  // step, and the run ends bitwise where the uninterrupted run does.
  const auto initial = with_velocities(random_uniform_particles(400, 1.0, 93), 94);
  const std::string dir = testing::TempDir() + "/dd_fault";
  std::filesystem::remove_all(dir);
  constexpr std::uint64_t kSteps = 3;
  const auto schedule = [](std::uint64_t i) { return static_cast<double>(i + 1) * 0.004; };
  const auto cfg = test_config({2, 2, 1});

  auto run = [&](const parx::FaultPlan& plan, ckpt::RecoveryStats* stats) {
    parx::Runtime rt(4);
    rt.set_fault_plan(plan);
    std::mutex mu;
    std::vector<Particle> out;
    rt.run([&](parx::Comm& world) {
      std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
      ParallelSimulation sim(world, cfg, std::move(local), 0.0);
      ckpt::RecoveryOptions opts;
      opts.dir = dir;
      opts.checkpoint_every = 1;
      const auto st = ckpt::run_with_recovery(sim, kSteps, schedule, opts);
      sim.synchronize();
      std::lock_guard lock(mu);
      if (world.rank() == 0) *stats = st;
      const auto loc = sim.local();
      out.insert(out.end(), loc.begin(), loc.end());
    });
    std::sort(out.begin(), out.end(),
              [](const Particle& a, const Particle& b) { return a.id < b.id; });
    return out;
  };

  ckpt::RecoveryStats clean_stats, fault_stats;
  const auto clean = run(parx::FaultPlan(), &clean_stats);
  std::filesystem::remove_all(dir);
  const auto injected_before = telemetry::Registry::global().counter("faults/injected").value();
  const auto faulted =
      run(parx::FaultPlan().at({.step = 2, .phase = parx::FaultPhase::kDD,
                                .kind = parx::FaultKind::kRankAbort, .rank = 1, .times = 1}),
          &fault_stats);

  EXPECT_EQ(clean_stats.failures, 0u);
  EXPECT_EQ(fault_stats.failures, 1u);
  EXPECT_EQ(fault_stats.restores, 1u);
  if (telemetry::enabled()) {
    EXPECT_EQ(telemetry::Registry::global().counter("faults/injected").value(),
              injected_before + 1);
  }
  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    ASSERT_EQ(std::memcmp(&faulted[i], &clean[i], sizeof(Particle)), 0)
        << "rolled-back run diverged at particle " << i;
}

// ------------------------------------------------------------- sentinel --

TEST(Sentinel, CatchesNaNPoisoningOnEveryRank) {
  auto initial = with_velocities(random_uniform_particles(300, 1.0, 21), 22);
  std::atomic<int> violations{0};
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, test_config({2, 2, 1}), std::move(local), 0.0);
    sim.step(0.002);
    // Flip one mass to NaN on one rank: the kick poisons that particle's
    // momentum; the sentinel's global non-finite scrub must fire on ALL
    // ranks together (it compares the same allreduced tally).
    if (world.rank() == 1) {
      auto mine = sim.local_mutable();
      ASSERT_FALSE(mine.empty());
      mine[0].mass = std::numeric_limits<double>::quiet_NaN();
    }
    try {
      sim.step(0.004);
      ADD_FAILURE() << "sentinel missed NaN corruption on rank " << world.rank();
    } catch (const SentinelError& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
      violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 4) << "the sentinel throw must be collective";
}

TEST(Sentinel, CatchesMassDriftAndRecoveryRollsItBack) {
  const std::string dir = testing::TempDir() + "/sentinel_rollback";
  std::filesystem::remove_all(dir);
  auto initial = with_velocities(random_uniform_particles(300, 1.0, 31), 32);
  const double dt = 0.002;
  const auto cfg = test_config({2, 1, 1});

  // Reference: the same schedule with no corruption.
  std::mutex ref_mu;
  std::vector<Particle> expected;
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (int s = 1; s <= 3; ++s) sim.step(s * dt);
    sim.synchronize();
    std::lock_guard lock(ref_mu);
    const auto loc = sim.local();
    expected.insert(expected.end(), loc.begin(), loc.end());
  });
  std::sort(expected.begin(), expected.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });

  std::atomic<int> violations{0};
  std::mutex mu;
  std::vector<Particle> collected;
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(1 * dt);
    sim.checkpoint(dir, /*keep_last=*/2);
    // Silently grow one particle's mass (the bit-flip-past-the-CRC model).
    if (world.rank() == 0) {
      auto mine = sim.local_mutable();
      ASSERT_FALSE(mine.empty());
      mine[0].mass *= 1.5;
    }
    try {
      sim.step(2 * dt);
      ADD_FAILURE() << "sentinel missed mass drift on rank " << world.rank();
    } catch (const SentinelError& e) {
      EXPECT_NE(std::string(e.what()).find("mass"), std::string::npos) << e.what();
      violations.fetch_add(1);
    }
    // Standard rollback-recovery path: rendezvous, restore, retry.
    world.fault_recover();
    const auto latest = ckpt::find_latest(dir);
    ASSERT_TRUE(latest.has_value());
    sim.restore_checkpoint(*latest);
    sim.step(2 * dt);
    sim.step(3 * dt);
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    collected.insert(collected.end(), loc.begin(), loc.end());
  });
  EXPECT_EQ(violations.load(), 2);
  std::sort(collected.begin(), collected.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  ASSERT_EQ(collected.size(), expected.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&collected[i], &expected[i], sizeof(Particle)), 0)
        << "post-rollback state diverged at particle " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(Sentinel, DisabledSentinelLetsCorruptionThrough) {
  auto initial = with_velocities(random_uniform_particles(200, 1.0, 41), 42);
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local = world.rank() == 0 ? initial : std::vector<Particle>{};
    auto cfg = test_config({2, 1, 1});
    cfg.sentinel.every = 0;
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(0.002);
    if (world.rank() == 0) {
      auto mine = sim.local_mutable();
      ASSERT_FALSE(mine.empty());
      mine[0].mass *= 1.5;
    }
    EXPECT_NO_THROW(sim.step(0.004));
  });
}

}  // namespace
}  // namespace greem::core
