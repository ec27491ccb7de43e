#pragma once
// Block tree walk: the interaction-list builder of Barnes' modified
// (group) traversal.
//
// The walk runs level by level.  Each opened cell of the current level
// has its children (at most 8, contiguous in the node arrays) classified
// in one pass into three masks: accepted multipoles, leaves to open, and
// cells to open.  The accepted nodes are appended to the list, the cells
// to open to the next level's frontier and the leaves to a leaf array --
// each append a compress of the mask's lanes (one AVX-512 instruction, or
// a branch-free loop), with no per-child branch and no stack.  After the
// last level the opened leaves' particles are copied, leaf by leaf (8 per
// AVX-512 pass, by stride-3 gathers).  A list is therefore the accepted
// nodes level by level (frontier order, then child order within a block),
// followed by the opened leaves' particles in the same order: as a
// multiset it is the list of a recursive walk under the same predicates.
//
// Two classifiers share the walk: a portable scalar loop, and an AVX-512
// pass over the 8 lanes of a child block (selected at run time when the
// CPU has AVX-512F).  Both evaluate the same predicates in the same
// operation order, so their masks -- and lists -- are identical.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pp/kernels.hpp"
#include "tree/octree.hpp"
#include "util/vec3.hpp"

namespace greem::tree {

enum class WalkClassifier {
  kPortable,  ///< scalar loop over the node arrays, any CPU
  kAvx512,    ///< one AVX-512F pass over a child block
};

/// True if `c` can execute on this CPU/build.
bool walk_classifier_available(WalkClassifier c);

/// The classifier the walk runs: AVX-512 when available, else portable.
WalkClassifier walk_dispatch();

const char* walk_classifier_name(WalkClassifier c);

/// An axis-aligned box: the tight box of a group's targets, which the walk
/// opens against.  `half` is per axis and may be 0 (a one-target group).
struct GroupBox {
  Vec3 center;
  Vec3 half;
};

/// The tight box of the tree-order particles `idx`: every one lies within
/// `half` of `center` on each axis, also in rounded arithmetic.
GroupBox target_box(const Octree& tree, std::span<const std::uint32_t> idx);

/// The group box of one walk and the acceptance parameters.
struct WalkBox {
  Vec3 center;
  Vec3 half;
  Vec3 offset;  ///< periodic image shift applied to the sources
  double rcut2 = std::numeric_limits<double>::infinity();  ///< prune beyond
  double theta2 = 0.25;
};

/// Classes of the children [first, first + n), bit k for child first + k.
/// A child pruned by the cutoff is in no mask.
struct ChildMasks {
  std::uint32_t accept = 0;  ///< multipole accepted: emit com and mass
  std::uint32_t leaf = 0;    ///< leaf not accepted: emit its particles
  std::uint32_t open = 0;    ///< cell not accepted: classify its children
};

/// Classify `n` <= 8 contiguous nodes starting at `first`.  With bb the
/// box-box distance^2 of a node's (shifted) cell to the group box and
/// dcom2 the distance^2 of its shifted com to the group box, a node is
///   - pruned when bb > rcut2: no group target is within rcut of it;
///   - accepted when dcom2 > 0 && size^2 < theta^2 dcom2 && bb > 0, unless
///     dcom2 >= rcut2, when it is dropped: its monopole sits at or past
///     rcut from every target, where the gP3M factor is exactly 0;
///   - otherwise opened, as a leaf or as a cell.
ChildMasks classify_children(WalkClassifier c, const NodeArrays& nodes, std::uint32_t first,
                             std::uint32_t n, const WalkBox& box);

/// Output and work counters of walk_group.
struct WalkSink {
  pp::InteractionList* list = nullptr;  ///< opened particles (and accepted nodes)
  /// Accepted nodes with their quadrupoles (kNewtonQuad; the tree must
  /// be built with_quadrupole); when null, accepted nodes go to `list` as
  /// monopoles.
  std::vector<pp::QuadSource>* quads = nullptr;
  /// Opened leaf sources with original index >= ghost_from count as
  /// ghost imports (parallel ranks: locals precede ghosts).
  std::uint32_t ghost_from = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t nodes_visited = 0;  ///< nodes classified, root included
  std::uint64_t ghost_sources = 0;
};

/// The level frontiers and opened leaves of a walk, reused across the
/// groups one thread walks (capacity only; no state between walks).
struct WalkScratch {
  std::vector<std::uint32_t> frontier, next, leaves;
};

/// Append the interaction list of the group box `group` to `sink`: one
/// walk from the root per image offset, in order.
void walk_group(const Octree& tree, const GroupBox& group, double theta, double rcut,
                std::span<const Vec3> offsets, WalkSink& sink, WalkScratch& scratch,
                WalkClassifier c = walk_dispatch());

}  // namespace greem::tree
