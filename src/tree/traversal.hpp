#pragma once
// Barnes' modified tree traversal (Barnes 1990): the walk is performed once
// per *group* of particles; the resulting interaction list (accepted
// multipoles + opened leaf particles) is shared by every particle of the
// group and evaluated by the PP kernel.  This trades a factor <Ni> in
// traversal cost for longer interaction lists — the tradeoff the paper
// tunes to <Ni> ~ 100 on K computer.
//
// Groups are formed over the targets only (Octree::groups with
// n_targets): imported ghosts are sources, never count toward ncrit and
// never form a group.  Each group walks against the tight box of its
// targets (tree/walk.hpp), so a boundary group holding a few targets among
// many ghosts opens against those few, not the ghost-sized cell.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pp/kernels.hpp"
#include "tree/octree.hpp"
#include "tree/walk.hpp"
#include "util/vec3.hpp"

namespace greem::tree {

enum class KernelKind {
  kScalar,      ///< exact arithmetic, gP3M cutoff
  kPhantom,     ///< batched approximate-rsqrt kernel, gP3M cutoff
  kNewton,      ///< no cutoff (pure-tree / direct baselines)
  kNewtonQuad,  ///< no cutoff, monopole+quadrupole node moments
                ///< (requires OctreeParams::with_quadrupole; throws
                ///< std::invalid_argument otherwise)
};

struct TraversalParams {
  double theta = 0.5;  ///< opening angle (cell size / distance)
  double rcut = std::numeric_limits<double>::infinity();  ///< short-range cutoff
  std::uint32_t ncrit = 64;  ///< max targets per group (<Ni> knob)
  double eps2 = 0.0;         ///< softening squared
  KernelKind kernel = KernelKind::kPhantom;
};

struct TraversalStats {
  std::uint64_t ngroups = 0;
  std::uint64_t sum_ni = 0;        ///< total targets over groups
  std::uint64_t sum_nj = 0;        ///< total interaction-list length over groups
  std::uint64_t interactions = 0;  ///< sum Ni * Nj
  /// (target, source) pairs the kernel ran: interactions less the pairs
  /// past the cutoff that the avx512 Phantom kernel culls per tile.
  /// Deterministic; equal to interactions under every other kernel.
  std::uint64_t pairs_evaluated = 0;
  std::uint64_t nodes_visited = 0;
  /// Ghost-import attribution: opened leaf sources whose original index is
  /// >= n_targets (parallel ranks: imported ghosts), summed over groups.
  /// Always 0 when every particle is a target.
  std::uint64_t ghost_sources = 0;

  double mean_ni() const { return ngroups ? double(sum_ni) / double(ngroups) : 0; }
  double mean_nj() const { return ngroups ? double(sum_nj) / double(ngroups) : 0; }

  void merge(const TraversalStats& o);
};

/// Walk time and force time measured separately (Table I rows
/// "tree traversal" and "force calculation").
struct TraversalTimes {
  double traverse_s = 0;
  double force_s = 0;
};

/// Per-group cost attribution, one entry per group, in
/// tree.groups(ncrit, n_targets) order -- the input the load-balance
/// roadmap item needs (which spatial regions cost what).  Every field
/// except the two timings is deterministic: independent of pool size and
/// scheduling.
struct GroupCost {
  std::uint32_t node = 0;  ///< group cell index into the tree's nodes
  std::uint32_t ni = 0;    ///< target (local) particles in the group, >= 1
  std::uint64_t nj = 0;    ///< interaction-list length (sources + multipoles)
  std::uint64_t interactions = 0;   ///< ni * nj
  std::uint64_t ghost_sources = 0;  ///< opened leaf sources that are ghosts
  double walk_s = 0;   ///< tree walk (interaction-list build) seconds
  double force_s = 0;  ///< kernel evaluation seconds
};

/// Compute accelerations of all tree particles, accumulated into `acc`
/// indexed by the *caller's original* particle indexing.
///
/// `image_offsets` lists periodic image shifts of the source tree to walk
/// (use {0,0,0} alone for open boundaries; the serial periodic TreePM
/// passes the 27 neighbor offsets and relies on rcut pruning).
TraversalStats tree_accelerations(const Octree& tree, const TraversalParams& params,
                                  std::span<Vec3> acc,
                                  std::span<const Vec3> image_offsets = {},
                                  TraversalTimes* times = nullptr);

/// As above but only for the targets, original indices < n_targets
/// (parallel ranks: locals precede ghosts, which are sources only).
/// Groups are formed over the targets alone, and the kernel of a group
/// runs on its targets, so `acc` needs only n_targets entries.  The stats
/// count only target interactions.  When `group_costs` is non-null it is
/// filled with one record per group (deterministic content modulo the
/// timings).
TraversalStats tree_accelerations_targets(const Octree& tree, const TraversalParams& params,
                                          std::size_t n_targets, std::span<Vec3> acc,
                                          std::span<const Vec3> image_offsets = {},
                                          TraversalTimes* times = nullptr,
                                          std::vector<GroupCost>* group_costs = nullptr);

/// Copy the tree-order positions of `idx` into `out` (a group's targets,
/// compacted for the kernel).
void gather_targets(const Octree& tree, std::span<const std::uint32_t> idx,
                    std::vector<Vec3>& out);

/// Build the interaction list of the group whose targets are the
/// tree-order particles `targets`: the walk of their tight box
/// (target_box) over `offsets` under `params`, appended to `sink`.  The
/// one list builder of tree_accelerations*; exposed for tests and benches.
void build_interaction_list(const Octree& tree, std::span<const std::uint32_t> targets,
                            const TraversalParams& params, std::span<const Vec3> offsets,
                            WalkSink& sink, WalkScratch& scratch);

}  // namespace greem::tree
