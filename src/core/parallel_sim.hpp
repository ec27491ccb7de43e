#pragma once
// Distributed TreePM simulation: the per-rank driver reproducing the
// paper's full step,
//
//   step = domain decomposition  +  PP cycle x nsub  +  one PM cycle,
//
// with the 3-D multi-section decomposition re-sampled once per step using
// the force cost (each group's interaction count, summed over the previous
// step's PP cycles), ghost (boundary) particle exchange for the
// short-range tree, and the parallel PM with the direct or relay mesh
// conversion.  Phase timings accumulate under the row names of
// Table I.
//
// The PM cycle is *pipelined*: it is evaluated at the end of each step (at
// the same positions the next step's long-range kick needs) right after
// the final substep's PP cycle, and the resulting acceleration is cached
// on the particle (Particle::acc_l) until the kick consumes it.  The paper
// runs the PM part concurrently with the PP part (§II-B); this
// reproduction runs them in sequence (docs/parallel_step.md says why).

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/integrator.hpp"
#include "core/particle.hpp"
#include "domain/multisection.hpp"
#include "domain/sampling.hpp"
#include "parx/comm.hpp"
#include "parx/fault.hpp"
#include "parx/traffic.hpp"
#include "pm/parallel_pm.hpp"
#include "telemetry/step_report.hpp"
#include "tree/traversal.hpp"
#include "util/timer.hpp"

namespace greem::core {

/// The domain sampling weighs each particle by its group's tree-walk
/// interaction count (docs/load-balance.md), which is bit-reproducible, so
/// whole runs -- checkpoint/restore round trips included -- are bitwise
/// deterministic.  This one-value enum and ParallelSimConfig::cost_metric
/// are read by nothing; they remain only because perfbench/greem_perf.cpp
/// still assigns the field.
enum class CostMetric { kInteractions };

/// Per-step invariant sentinel: a cheap collective check that converts
/// silent state corruption (a bit flip that slipped past the transport
/// CRC, a lost particle, NaN poisoning) into a typed, recoverable fault.
/// Every rank evaluates the same globally-reduced values, so a violation
/// throws SentinelError on all ranks together and the rollback-recovery
/// loop treats it exactly like a communication fault.
struct SentinelConfig {
  int every = 1;  ///< check after every N-th step (0 disables the sentinel)
  /// Relative drift bound on total mass vs the baseline captured at
  /// construction / restore.  Mass is transported, never created: any
  /// drift beyond roundoff is corruption.
  double max_mass_drift = 1e-9;
  /// Absolute per-component bound on total momentum change across one
  /// check interval.  Tree-approximate forces conserve momentum only
  /// approximately, so the default leaves this check off.
  double max_momentum_drift = std::numeric_limits<double>::infinity();
};

/// Invariant violation detected by the sentinel.  Derives CommError so
/// ckpt::run_with_recovery rolls back to the last checkpoint instead of
/// propagating corrupted state.
class SentinelError : public parx::CommError {
 public:
  explicit SentinelError(const std::string& what) : parx::CommError(what) {}
};

struct ParallelSimConfig {
  std::array<int, 3> dims{1, 1, 1};  ///< rank grid; product must equal comm size
  pm::ParallelPmParams pm;           ///< mesh, rcut, scheme, conversion method
  double theta = 0.5;
  std::uint32_t ncrit = 64;
  std::uint32_t leaf_capacity = 8;
  double eps = 0.0;
  tree::KernelKind kernel = tree::KernelKind::kPhantom;
  domain::SamplingParams sampling;
  TimeMetric metric;
  int nsub = 2;
  CostMetric cost_metric = CostMetric::kInteractions;  ///< unread; see CostMetric

  /// Invariant sentinel; excluded from config_fingerprint (it observes the
  /// dynamics, it does not change them).  Must be set identically on every
  /// rank (the check is collective).
  SentinelConfig sentinel;

  /// When non-empty, the constructor restores state from a checkpoint
  /// instead of running the initial decomposition + force cycle: either a
  /// committed checkpoint directory (containing MANIFEST.json) or a parent
  /// directory, in which case the newest committed checkpoint is used.
  /// The `local` particles passed to the constructor are discarded.  Must
  /// be set identically on every rank.
  std::string restore_from;

  /// Intra-rank pool size applied at construction (0 = leave the global
  /// pool as is).  TaskPool::resize is a no-op when the size is unchanged,
  /// so every parx rank-thread applying the same config is safe; ranks
  /// share the process-wide pool, they do not get one each.
  std::size_t pool_threads = 0;

  /// When non-empty (and the telemetry layer is compiled in), every step()
  /// appends one StepRecord JSON line to this file: phase times under the
  /// Table I row names (max over ranks), achieved flop rate from the
  /// interaction counts, load imbalance, pool activity and per-phase
  /// traffic.  The aggregation performs a few extra small allreduces per
  /// step, so leave it empty for overhead-sensitive runs.  Must be set
  /// identically on every rank (the aggregation is collective); rank 0
  /// writes the file.
  std::string step_report_path;

  /// fsync the step-report file after each appended line (the append is
  /// always flushed to the OS either way, so a killed *process* loses
  /// nothing; fsync additionally survives a killed machine).  Excluded
  /// from config_fingerprint.
  bool step_report_fsync = false;

  /// Service-mode label ("job-<id>") stamped on every StepRecord and used
  /// as the live-endpoint topic so `watch` clients only see their job's
  /// stream.  Empty for solo runs (records carry no job field and go to
  /// every subscriber).  Excluded from config_fingerprint: a label is
  /// reporting plumbing, not physics.
  std::string job_label;

  double rcut() const { return pm.effective_rcut(); }
};

class ParallelSimulation {
 public:
  /// Collective.  `local` is this rank's initial share of the particles
  /// (any distribution; the first domain decomposition redistributes).
  ParallelSimulation(parx::Comm& world, ParallelSimConfig config,
                     std::vector<Particle> local, double t_start);

  /// Collective: advance the clock to t_next.
  void step(double t_next);

  /// Apply the pending long-range closing half-kick from the cached
  /// Particle::acc_l (evaluated at the current positions by the pipelined
  /// PM cycle).  Local: no communication, no recompute.
  void synchronize();

  /// Collective: write a checkpoint of the current state under `dir`,
  /// pruning to the newest `keep_last` committed checkpoints (0 = keep
  /// all).  Restoring it reproduces this simulation bitwise, including a
  /// pending long-range half-kick and the domain-decomposition history.
  /// Throws ckpt::CkptError on failure.
  void checkpoint(const std::string& dir, std::size_t keep_last = 2);

  /// Collective: replace the full simulation state with the committed
  /// checkpoint at `ckpt_path`.  Throws ckpt::CkptError if the checkpoint
  /// is corrupt, was written by a different rank grid, or its config
  /// fingerprint disagrees with this simulation's config.
  void restore_checkpoint(const std::string& ckpt_path);

  /// Completed steps (restored across checkpoint round trips).
  std::uint64_t step_index() const { return step_counter_; }

  parx::Comm& comm() { return world_; }

  double clock() const { return clock_; }
  std::span<const Particle> local() const { return particles_; }
  /// Mutable view of this rank's particles, for tests that inject
  /// corruption the sentinel must catch.  Collective structure (counts,
  /// decomposition) must not be changed through it.
  std::span<Particle> local_mutable() { return particles_; }
  std::vector<Particle> take_local() && { return std::move(particles_); }
  const domain::Decomposition& decomposition() const { return decomp_; }

  struct StepReport {
    TimingBreakdown pm, pp, dd;      ///< this rank's phase seconds (busy time)
    tree::TraversalStats pp_stats;   ///< this rank's traversal statistics
    std::size_t n_ghost_imported = 0;
    std::size_t n_tree_particles = 0;  ///< locals + ghosts over the step's trees
    /// Per-group cost attribution of the final PP cycle (walk/force
    /// seconds, interactions, ghost imports per group) -- rank-local, in
    /// tree.groups(ncrit, n_local) order; the load-balance input.
    std::vector<tree::GroupCost> pp_group_costs;
    /// Global traffic per phase bucket, accumulated from ledger epochs.
    /// Observed on rank 0 only (the ledger is global); empty elsewhere
    /// and when step reporting is off.
    parx::TrafficCounts traffic_dd, traffic_pp, traffic_pm;
  };
  const StepReport& last_step() const { return report_; }

  /// The cross-rank aggregate written for the most recent step.  Valid on
  /// every rank (the aggregation is collective) once a step has run with
  /// step reporting enabled.
  const telemetry::StepRecord& last_record() const { return record_; }

 private:
  void domain_cycle(std::uint64_t substep_id);

  /// PP cycle under one traffic epoch: select the boundary particles,
  /// exchange the ghosts, build the tree over locals then ghosts in source
  /// rank order, walk the groups and compute acc_s.
  void pp_force_cycle();

  /// The final substep's PP cycle followed by the pipelined PM cycle
  /// (acc_l at the current positions).
  void combined_force_cycle(std::uint64_t fault_step);

  void write_step_record();
  /// Collective: capture the sentinel baselines from the current state.
  void sentinel_baseline();
  /// Collective: verify the invariants; throws SentinelError on every rank
  /// when one is violated.
  void sentinel_check();

  /// True when step() should aggregate and append StepRecords.
  bool reporting() const {
    return telemetry::enabled() && !config_.step_report_path.empty();
  }

  parx::Comm world_;
  ParallelSimConfig config_;
  pm::ParallelPm pm_;
  domain::BoundarySmoother smoother_;
  domain::Decomposition decomp_;
  std::vector<Particle> particles_;
  double clock_;
  double pending_long_kick_ = 0;
  /// Domain decompositions run so far: the constructor's plus one per
  /// step.  Seeds each decomposition's sampling; checkpointed as
  /// `substep`.
  std::uint64_t substep_counter_ = 0;
  std::uint64_t step_counter_ = 0;
  StepReport report_;
  telemetry::StepRecord record_;
  // Sentinel baselines (captured at construction and after each restore).
  double sentinel_count0_ = -1;  ///< <0: baseline not yet captured
  double sentinel_mass0_ = 0;
  std::array<double, 3> sentinel_prev_mom_{};
  // Pool counters at the previous report, to delta per step.
  std::uint64_t pool_prev_loops_ = 0, pool_prev_chunks_ = 0, pool_prev_steals_ = 0;
  // Transport counters at the previous report, same treatment.
  std::uint64_t tp_prev_retransmits_ = 0, tp_prev_drops_ = 0, tp_prev_corrupt_ = 0;
};

/// Stable digest of every config field that affects the dynamics (rank
/// grid, force/integration parameters, PM setup, sampling seed,
/// cosmology).  Recorded in checkpoint manifests and verified on
/// restore, so a checkpoint cannot silently resume under different
/// physics.  Reporting/paths (step_report_path, restore_from,
/// pool_threads) are excluded.
std::uint64_t config_fingerprint(const ParallelSimConfig& config);

/// Phase-wise max over ranks (the paper reports the slowest rank's time).
TimingBreakdown allreduce_max(parx::Comm& comm, const TimingBreakdown& local);

/// Sum of traversal statistics over ranks.
tree::TraversalStats allreduce_sum(parx::Comm& comm, const tree::TraversalStats& local);

}  // namespace greem::core
