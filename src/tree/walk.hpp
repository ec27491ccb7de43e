#pragma once
// Block tree walk: the interaction-list builder of Barnes' modified
// (group) traversal.
//
// The walk pops an opened cell and classifies all of its children (at
// most 8, contiguous in the node arrays) in one pass into three masks:
// accepted multipoles, leaves to open, and cells to open.  Children before
// the first cell to open are emitted at once; the rest go on a fixed-size
// stack as typed tokens in reverse order, so the list comes out in exact
// depth-first pre-order -- bitwise the list of a recursive walk that
// visits children in index order.
//
// Two classifiers share the walk: a portable scalar loop, and an AVX-512
// pass over the 8 lanes of a child block (selected at run time when the
// CPU has AVX-512F).  Both evaluate the same predicates in the same
// operation order, so their masks are identical.

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

/// The group cube a walk opens against, and the acceptance parameters.
struct WalkBox {
  Vec3 center;
  double half = 0;
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

/// Classify `n` <= 8 contiguous nodes starting at `first`.  Each node is
/// pruned when its box-box distance^2 to the group exceeds rcut2, and
/// accepted when dcom2 > 0 && size^2 < theta^2 dcom2 && box-box d2 > 0,
/// with dcom2 the distance^2 from its shifted com to the group cube.
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

/// Append the interaction list of group node `group_node` to `sink`: one
/// walk from the root per image offset, in order.
void walk_group(const Octree& tree, std::uint32_t group_node, double theta, double rcut,
                std::span<const Vec3> offsets, WalkSink& sink,
                WalkClassifier c = walk_dispatch());

}  // namespace greem::tree
