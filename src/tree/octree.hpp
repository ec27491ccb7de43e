#pragma once
// Linearized Barnes-Hut octree.
//
// Particles are sorted by Morton key over the bounding cube of the input,
// so every tree cell owns a contiguous particle range; nodes are stored in
// a flat array built by recursive partitioning on the keys' octal digits
// (an MSD radix sort that yields the cells as it goes).  Tied keys
// (particles in the same finest cell, duplicate positions) keep their
// input order: every partition is stable, so the tree is a pure function
// of the inputs.  Monopole (center-of-mass) moments are
// accumulated bottom-up, which is the expansion GreeM uses for the
// short-range tree walk.
//
// Node storage is a structure of arrays (NodeArrays): the siblings of a
// cell are contiguous, so the block walk (tree/walk.hpp) loads one field
// of up to eight children with a single vector load.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace greem::tree {

/// One node's fields, assembled by value from the node arrays (for code
/// off the walk's hot path: group bookkeeping, tests, load balance).
struct TreeNode {
  Vec3 center;               ///< geometric center of the cubic cell
  double half = 0;           ///< half of the cell side length
  Vec3 com;                  ///< center of mass of contained particles
  double mass = 0;           ///< total contained mass
  std::uint32_t first_child = 0;  ///< index of first child node (0 = leaf)
  std::uint32_t nchildren = 0;
  std::uint32_t first = 0;   ///< first particle (tree order)
  std::uint32_t count = 0;   ///< number of particles in the cell

  bool is_leaf() const { return nchildren == 0; }
};

/// The node storage: entry i of every array belongs to node i.  Children
/// of a node are the contiguous range [first_child, first_child +
/// nchildren).
struct NodeArrays {
  std::vector<double> cx, cy, cz;        ///< cell centers
  std::vector<double> half;              ///< half cell side lengths
  std::vector<double> comx, comy, comz;  ///< centers of mass
  std::vector<double> mass;              ///< contained masses
  std::vector<std::uint32_t> first_child, nchildren;  ///< child range
  std::vector<std::uint32_t> first, count;            ///< particle range

  std::size_t size() const { return half.size(); }
  void resize(std::size_t n);  ///< new nodes are zeroed
};

/// Trace-free quadrupole tensor about a node's center of mass,
/// Q_ij = sum m (3 d_i d_j - delta_ij d^2), packed xx,xy,xz,yy,yz,zz.
using Quadrupole = std::array<double, 6>;

struct OctreeParams {
  std::uint32_t leaf_capacity = 8;  ///< split cells with more particles
  /// Morton key resolution bound; values above kMortonBits are clamped.
  int max_depth = 21;
  /// Accumulate quadrupole moments (the multipole order of the classic
  /// pure-tree Gordon Bell codes; the TreePM cutoff walk stays monopole,
  /// as in GreeM, because gP3M applies to point-pair force shapes).
  bool with_quadrupole = false;
};

class Octree {
 public:
  /// Build over a snapshot of positions/masses.  The inputs are not
  /// modified; the tree keeps Morton-sorted copies plus the permutation
  /// back to the caller's indexing.  Particles with equal Morton keys
  /// appear in increasing caller index.
  Octree(std::span<const Vec3> pos, std::span<const double> mass, OctreeParams params = {});

  const NodeArrays& node_arrays() const { return nodes_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  TreeNode node(std::uint32_t i) const;
  TreeNode root() const { return node(0); }

  /// Per-node quadrupoles; empty unless OctreeParams::with_quadrupole.
  std::span<const Quadrupole> quads() const { return quads_; }

  /// Positions/masses in tree (Morton) order.
  std::span<const Vec3> sorted_pos() const { return sorted_pos_; }
  std::span<const double> sorted_mass() const { return sorted_mass_; }

  /// original_index(i) = caller index of tree-order particle i.
  std::uint32_t original_index(std::uint32_t i) const { return order_[i]; }
  std::span<const std::uint32_t> order() const { return order_; }

  std::size_t num_particles() const { return sorted_pos_.size(); }

  /// The particle groups of Barnes' modified algorithm (§II of the paper;
  /// <Ni> ~ 100 is optimal on K computer), as node indices in tree order.
  /// Only targets -- particles with original index < n_targets (parallel
  /// ranks: locals precede the imported ghosts) -- count: a group is a
  /// maximal cell holding at most `ncrit` targets and at least one, or a
  /// leaf with more.  Cells without a target form no group, and the
  /// groups' target sets partition the targets.
  std::vector<std::uint32_t> groups(std::uint32_t ncrit,
                                    std::size_t n_targets = SIZE_MAX) const;

 private:
  NodeArrays nodes_;
  std::vector<Quadrupole> quads_;
  std::vector<Vec3> sorted_pos_;
  std::vector<double> sorted_mass_;
  std::vector<std::uint32_t> order_;
  Vec3 box_origin_;
  double box_size_ = 1.0;
};

}  // namespace greem::tree
