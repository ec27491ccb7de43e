#include "tree/traversal.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "tree/walk.hpp"
#include "util/parallel_for.hpp"
#include "util/timer.hpp"

namespace greem::tree {
namespace {

// One group's monopole kernel under the configured dispatch (pad4 for
// Phantom); kNewtonQuad runs the Newton part and the caller adds the node
// quadrupoles.  Returns the list pairs the kernel evaluated: ni x nj, or
// fewer where the Phantom kernel culls pairs past the cutoff.  pad4's
// far massless entries are not list pairs, so they never count.
std::uint64_t evaluate_group_kernel(std::span<const Vec3> targets, pp::InteractionList& list,
                                    const TraversalParams& params,
                                    std::span<Vec3> group_acc) {
  const std::uint64_t list_pairs = std::uint64_t{targets.size()} * list.size();
  switch (params.kernel) {
    case KernelKind::kScalar:
      pp_kernel_scalar(targets, group_acc, list, params.rcut, params.eps2);
      break;
    case KernelKind::kPhantom:
      list.pad4();
      return std::min(list_pairs,
                      pp_kernel_phantom(targets, group_acc, list, params.rcut, params.eps2));
    case KernelKind::kNewton:
    case KernelKind::kNewtonQuad:  // the node quadrupoles are added by the caller
      pp_kernel_newton(targets, group_acc, list, params.eps2);
      break;
  }
  return list_pairs;
}

TraversalStats run_traversal(const Octree& tree, const TraversalParams& params,
                             std::size_t n_targets, std::span<Vec3> acc,
                             std::span<const Vec3> image_offsets, TraversalTimes* times,
                             std::vector<GroupCost>* group_costs) {
  static const Vec3 kHome{0, 0, 0};
  if (image_offsets.empty()) image_offsets = {&kHome, 1};

  if (params.kernel == KernelKind::kNewtonQuad && tree.quads().size() != tree.num_nodes())
    throw std::invalid_argument("run_traversal: kNewtonQuad needs a tree built with_quadrupole");

  telemetry::Span span("tree/traversal_force");
  TraversalStats stats;
  if (group_costs) group_costs->clear();
  if (tree.num_particles() == 0) return stats;

  // Targets are the rank's own particles (original index < n_targets);
  // imported ghosts are sources only and form no group, so every group
  // owns at least one target and gidx below indexes groups(ncrit,
  // n_targets).
  const std::vector<std::uint32_t> group_nodes = tree.groups(params.ncrit, n_targets);
  const bool quad = params.kernel == KernelKind::kNewtonQuad;
  if (group_costs) group_costs->assign(group_nodes.size(), GroupCost{});

  // Groups own disjoint particle ranges, so the group loop parallelizes
  // over the intra-rank thread pool (the paper's MPI/OpenMP hybrid: ranks
  // distribute domains, threads share the group list).  Groups are
  // dynamically scheduled one at a time -- interaction-list sizes vary by
  // orders of magnitude between clustered and void regions, so static
  // chunking load-imbalances badly.  Each pool slot reuses one scratch set
  // (interaction list, gathered targets, accumulators) across all groups
  // it takes; the scratch is freed when the traversal returns.
  // Accumulated phase seconds are summed CPU time.
  struct SlotScratch {
    TraversalStats stats;
    double traverse_s = 0, force_s = 0;
    std::vector<std::uint32_t> tidx;  ///< the group's targets, tree order
    std::vector<Vec3> tpos;
    std::vector<Vec3> group_acc;
    pp::InteractionList list;
    std::vector<pp::QuadSource> quad_nodes;
    WalkScratch walk;
  };
  std::vector<SlotScratch> scratch(max_parallel_slots());

  parallel_for_dynamic(0, group_nodes.size(), 1, [&](std::size_t lo, std::size_t hi, unsigned slot) {
    SlotScratch& sc = scratch[slot];
    TraversalStats& local_stats = sc.stats;
    pp::InteractionList& list = sc.list;
    std::vector<pp::QuadSource>& quad_nodes = sc.quad_nodes;
    Stopwatch sw;

    for (std::size_t gidx = lo; gidx < hi; ++gidx) {
      const TreeNode g = tree.node(group_nodes[gidx]);

      sw.restart();
      // Only the group's targets are evaluated, and only they shape the
      // box the walk opens against; its ghost members are sources only.
      sc.tidx.clear();
      for (std::uint32_t i = g.first; i < g.first + g.count; ++i)
        if (tree.original_index(i) < n_targets) sc.tidx.push_back(i);
      const std::uint64_t ni = sc.tidx.size();

      list.clear();
      quad_nodes.clear();
      // Opened leaf sources with original index >= n_targets are ghosts.
      WalkSink sink{&list, quad ? &quad_nodes : nullptr, static_cast<std::uint32_t>(n_targets)};
      build_interaction_list(tree, sc.tidx, params, image_offsets, sink, sc.walk);
      local_stats.nodes_visited += sink.nodes_visited;
      const std::uint64_t nj = list.size() + quad_nodes.size();
      const double walk_s = sw.seconds();
      sc.traverse_s += walk_s;

      ++local_stats.ngroups;
      local_stats.sum_ni += ni;
      local_stats.sum_nj += nj;
      local_stats.interactions += ni * nj;
      local_stats.ghost_sources += sink.ghost_sources;

      // Per-group cost record: slot gidx is this group's regardless of
      // which pool slot ran it, so the output is deterministically indexed.
      GroupCost* gc = group_costs ? &(*group_costs)[gidx] : nullptr;
      if (gc) {
        gc->node = group_nodes[gidx];
        gc->ni = static_cast<std::uint32_t>(ni);
        gc->nj = nj;
        gc->interactions = ni * nj;
        gc->ghost_sources = sink.ghost_sources;
        gc->walk_s = walk_s;
      }

      sw.restart();
      gather_targets(tree, sc.tidx, sc.tpos);
      sc.group_acc.assign(ni, Vec3{});
      local_stats.pairs_evaluated += evaluate_group_kernel(sc.tpos, list, params, sc.group_acc) +
                                     ni * quad_nodes.size();
      if (quad) pp_kernel_quadrupole(sc.tpos, sc.group_acc, quad_nodes, params.eps2);
      // Disjoint writes: each tree-order particle belongs to one group.
      for (std::size_t k = 0; k < ni; ++k)
        acc[tree.original_index(sc.tidx[k])] += sc.group_acc[k];
      const double force_s = sw.seconds();
      sc.force_s += force_s;
      if (gc) gc->force_s = force_s;
    }
  });

  // Merge in slot order after the barrier: no lock, and the integer stats
  // totals are identical for every pool size (sums commute; which slot ran
  // which group does not matter).
  double traverse_s = 0, force_s = 0;
  for (SlotScratch& sc : scratch) {
    stats.merge(sc.stats);
    traverse_s += sc.traverse_s;
    force_s += sc.force_s;
  }

  if (times) {
    times->traverse_s += traverse_s;
    times->force_s += force_s;
  }

  // Interaction counts feed the achieved-flops accounting (51
  // flops/interaction, §II-A); reports convert, the hot path only counts.
  if constexpr (telemetry::enabled()) {
    auto& reg = telemetry::Registry::global();
    reg.counter("tree/interactions").add(stats.interactions);
    reg.counter("tree/groups").add(stats.ngroups);
    reg.counter("tree/nodes_visited").add(stats.nodes_visited);
    reg.counter("tree/ghost_sources").add(stats.ghost_sources);
    if (group_costs) {
      // Distribution views of the cost attribution (imbalance shows up as
      // a heavy tail long before the per-step means move).
      auto& walk_h = reg.histogram("pp/group_walk_s");
      auto& int_h = reg.histogram("pp/group_interactions");
      for (const GroupCost& gc : *group_costs) {
        walk_h.record(gc.walk_s);
        int_h.record(static_cast<double>(gc.interactions));
      }
    }
  }
  return stats;
}

}  // namespace

void TraversalStats::merge(const TraversalStats& o) {
  ngroups += o.ngroups;
  sum_ni += o.sum_ni;
  sum_nj += o.sum_nj;
  interactions += o.interactions;
  pairs_evaluated += o.pairs_evaluated;
  nodes_visited += o.nodes_visited;
  ghost_sources += o.ghost_sources;
}

void gather_targets(const Octree& tree, std::span<const std::uint32_t> idx,
                    std::vector<Vec3>& out) {
  const auto pos = tree.sorted_pos();
  out.resize(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) out[k] = pos[idx[k]];
}

TraversalStats tree_accelerations(const Octree& tree, const TraversalParams& params,
                                  std::span<Vec3> acc, std::span<const Vec3> image_offsets,
                                  TraversalTimes* times) {
  return run_traversal(tree, params, tree.num_particles(), acc, image_offsets, times, nullptr);
}

TraversalStats tree_accelerations_targets(const Octree& tree, const TraversalParams& params,
                                          std::size_t n_targets, std::span<Vec3> acc,
                                          std::span<const Vec3> image_offsets,
                                          TraversalTimes* times,
                                          std::vector<GroupCost>* group_costs) {
  return run_traversal(tree, params, n_targets, acc, image_offsets, times, group_costs);
}

void build_interaction_list(const Octree& tree, std::span<const std::uint32_t> targets,
                            const TraversalParams& params, std::span<const Vec3> offsets,
                            WalkSink& sink, WalkScratch& scratch) {
  walk_group(tree, target_box(tree, targets), params.theta, params.rcut, offsets, sink, scratch);
}

}  // namespace greem::tree
