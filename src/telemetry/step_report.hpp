#pragma once
// StepRecord: the machine-readable per-step report of the distributed
// TreePM driver -- one JSON line per step with the Table I phase times
// (max over ranks, the paper's convention: the slowest rank sets the step
// time), the achieved short-range flop rate computed from interaction
// counts (51 flops/interaction, §II-A), per-rank load imbalance (max/mean)
// and per-phase communication traffic from the parx ledger.
//
// The record struct itself is always available (it is plain data);
// ParallelSimulation only *fills and writes* it when the telemetry layer
// is compiled in and a report path is configured.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.hpp"

namespace greem::telemetry {

struct StepRecord {
  std::string job;          ///< owning job label under a service, "" solo
  std::uint64_t step = 0;   ///< 1-based step index
  double t = 0;             ///< simulation clock after the step
  int ranks = 1;
  int nsub = 1;             ///< PP cycles inside this step
  std::uint64_t n_particles = 0;  ///< global

  /// Phase seconds, max over ranks, under the Table I row names (per-phase
  /// stopwatch segments of the rank thread).
  TimingBreakdown pm, pp, dd;

  // Load imbalance of the PP part (traversal + force), over ranks.
  double pp_seconds_max = 0;
  double pp_seconds_mean = 0;
  double pp_imbalance() const {
    return pp_seconds_mean > 0 ? pp_seconds_max / pp_seconds_mean : 0.0;
  }

  // Short-range work and achieved rate (global interactions, wall time of
  // the slowest rank's traversal+force).
  std::uint64_t interactions = 0;
  /// Pairs the kernel ran, <= interactions: the avx512 kernel culls the
  /// list pairs past the cutoff.  flops keep the list-pair accounting.
  std::uint64_t pairs_evaluated = 0;
  double flops = 0;      ///< interactions * flops/interaction
  double flop_rate = 0;  ///< flops / pp_seconds_max

  // Tree-walk work (Table I "tree traversal"): global nodes classified by
  // the group walks, and the walk rate against the traversal seconds
  // summed over ranks (each rank's pool-slot CPU seconds).
  std::uint64_t nodes_visited = 0;
  double walk_mnodes_s = 0;  ///< nodes_visited / sum of traversal s / 1e6

  /// Tree-construction rate (Table I "tree construction"): the particles in
  /// every rank's trees (locals plus ghosts, every PP cycle of the step),
  /// summed over ranks, / the ranks' summed tree-construction s / 1e6.
  double tree_build_mpart_s = 0;

  // Table I group statistics of the step's PP cycles, global: walked
  // groups, and their mean targets <Ni> and mean list length <Nj>.
  std::uint64_t groups = 0;
  double mean_ni = 0;
  double mean_nj = 0;
  /// Deterministic PP load balance: max over ranks of the step's
  /// interactions divided by their mean (1 = perfectly balanced).
  double work_imbalance = 0;

  std::uint64_t ghosts_imported = 0;  ///< global boundary-particle imports

  // Intra-rank task-pool activity during this step (the pool is shared
  // process-wide, so these are process totals, not per-rank).
  std::uint64_t pool_loops = 0;   ///< parallel loops dispatched
  std::uint64_t pool_chunks = 0;  ///< chunks executed
  std::uint64_t pool_steals = 0;  ///< chunks obtained by stealing
  double pool_imbalance = 0;      ///< max/mean per-slot busy time

  /// Global point-to-point traffic attributed to one phase of the step.
  struct PhaseTraffic {
    std::string phase;  ///< "dd", "pp", "pm"
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    double model_time_s = 0;  ///< endpoint-serialization congestion model
  };
  std::vector<PhaseTraffic> traffic;

  // Reliable-transport activity during this step (counter deltas; all zero
  // on the perfect-link fast path).
  std::uint64_t retransmits = 0;        ///< frames retransmitted
  std::uint64_t transport_drops = 0;    ///< transmissions dropped by the link model
  std::uint64_t corrupt_detected = 0;   ///< frames rejected by CRC at the receiver

  /// Per-rank PP group-walk cost summary (final PP cycle of the step) --
  /// the coarse view of tree::GroupCost attribution: where the short-range
  /// work sits across ranks, which rank carries the most expensive single
  /// group.  Empty when group costs were not collected.
  struct RankGroups {
    std::uint64_t groups = 0;         ///< group count on this rank
    std::uint64_t interactions = 0;   ///< sum of per-group Ni*Nj
    std::uint64_t ghost_sources = 0;  ///< opened ghost leaf sources
    double walk_s = 0;                ///< summed per-group walk seconds
    double force_s = 0;               ///< summed per-group kernel seconds
    double max_group_s = 0;  ///< costliest single group (walk + force)
  };
  std::vector<RankGroups> pp_groups;  ///< indexed by rank
};

/// Append `r` to `os` as one compact JSON line (JSONL).
void write_jsonl(std::ostream& os, const StepRecord& r);

/// Append one pre-rendered line to `path` with a single POSIX
/// O_APPEND write, then flush it to the OS (and to the disk when
/// `fsync` is set) before returning -- a crash right after a step can
/// never lose that step's record, which is the whole point of a
/// post-mortem report stream.  Returns false if the file could not be
/// opened or fully written.
bool append_jsonl_line(const std::string& path, std::string_view line, bool fsync = false);

}  // namespace greem::telemetry
