// Octree construction invariants, Barnes-modified group traversal against
// direct summation, cutoff pruning, and ghost selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/direct_force.hpp"
#include "core/particle.hpp"
#include "core/tree_force.hpp"
#include "tree/ghost.hpp"
#include "tree/octree.hpp"
#include "tree/traversal.hpp"
#include "tree/walk.hpp"
#include "util/morton.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace greem::tree {
namespace {

std::vector<Vec3> random_positions(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pos(n);
  for (auto& p : pos) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return pos;
}

/// The 27 periodic image offsets of the unit box.
const std::vector<Vec3>& all_images() {
  static const std::vector<Vec3> images = [] {
    std::vector<Vec3> v;
    for (int x = -1; x <= 1; ++x)
      for (int y = -1; y <= 1; ++y)
        for (int z = -1; z <= 1; ++z) v.emplace_back(x, y, z);
    return v;
  }();
  return images;
}

TEST(Octree, ConservesMassAndCenterOfMass) {
  const auto pos = random_positions(500, 1);
  Rng rng(2);
  std::vector<double> mass(pos.size());
  for (auto& m : mass) m = rng.uniform(0.5, 1.5);

  Octree tree(pos, mass);
  double total = 0;
  Vec3 com{};
  for (std::size_t i = 0; i < pos.size(); ++i) {
    total += mass[i];
    com += pos[i] * mass[i];
  }
  com /= total;
  EXPECT_NEAR(tree.root().mass, total, 1e-12);
  EXPECT_NEAR(tree.root().com.x, com.x, 1e-12);
  EXPECT_NEAR(tree.root().com.y, com.y, 1e-12);
  EXPECT_NEAR(tree.root().com.z, com.z, 1e-12);
}

TEST(Octree, NodesOwnConsistentParticleRanges) {
  const auto pos = random_positions(300, 3);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  for (std::uint32_t ni = 0; ni < tree.num_nodes(); ++ni) {
    const TreeNode node = tree.node(ni);
    EXPECT_LE(node.first + node.count, tree.num_particles());
    if (!node.is_leaf()) {
      // Children partition the parent's range.
      std::uint32_t sum = 0;
      for (std::uint32_t c = 0; c < node.nchildren; ++c)
        sum += tree.node(node.first_child + c).count;
      EXPECT_EQ(sum, node.count);
    }
    // Particles lie inside the (slightly padded) cell cube.
    for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
      const Vec3 p = tree.sorted_pos()[i];
      EXPECT_LE(std::abs(p.x - node.center.x), node.half * (1 + 1e-9) + 1e-12);
      EXPECT_LE(std::abs(p.y - node.center.y), node.half * (1 + 1e-9) + 1e-12);
      EXPECT_LE(std::abs(p.z - node.center.z), node.half * (1 + 1e-9) + 1e-12);
    }
  }
}

TEST(Octree, LeavesRespectCapacityAboveMaxDepth) {
  const auto pos = random_positions(2000, 4);
  std::vector<double> mass(pos.size(), 1.0);
  OctreeParams params;
  params.leaf_capacity = 16;
  Octree tree(pos, mass, params);
  for (std::uint32_t ni = 0; ni < tree.num_nodes(); ++ni) {
    const TreeNode node = tree.node(ni);
    if (node.is_leaf() && node.half > 1e-5) {
      EXPECT_LE(node.count, 16u);
    }
  }
}

TEST(Octree, OrderIsAPermutation) {
  const auto pos = random_positions(777, 5);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  std::vector<bool> seen(pos.size(), false);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto orig = tree.original_index(static_cast<std::uint32_t>(i));
    ASSERT_LT(orig, pos.size());
    EXPECT_FALSE(seen[orig]);
    seen[orig] = true;
    EXPECT_EQ(tree.sorted_pos()[i], pos[orig]);
  }
}

TEST(Octree, EmptyAndSingleParticle) {
  std::vector<Vec3> none;
  std::vector<double> no_mass;
  Octree empty(none, no_mass);
  EXPECT_EQ(empty.root().count, 0u);

  const std::vector<Vec3> one{{0.5, 0.5, 0.5}};
  const std::vector<double> m{2.0};
  Octree single(one, m);
  EXPECT_EQ(single.root().count, 1u);
  EXPECT_DOUBLE_EQ(single.root().mass, 2.0);
}

TEST(Octree, GroupsPartitionAllParticles) {
  const auto pos = random_positions(1500, 6);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  const auto groups = tree.groups(100);
  std::uint32_t covered = 0, expect_first = 0;
  for (const auto g : groups) {
    const TreeNode node = tree.node(g);
    EXPECT_EQ(node.first, expect_first);  // contiguous in tree order
    EXPECT_LE(node.count, 100u);
    covered += node.count;
    expect_first = node.first + node.count;
  }
  EXPECT_EQ(covered, 1500u);
}

// ---------------------------------------------- reference tree build --

/// The octree as first written: an index std::stable_sort by Morton key
/// (ties in index order, the documented rule) and a recursive partition
/// that scans each range for its octant bounds and grows the node arrays
/// at every split.  Octree must reproduce it bit for bit.
struct ReferenceTree {
  NodeArrays nodes;
  std::vector<Quadrupole> quads;
  std::vector<Vec3> sorted_pos;
  std::vector<double> sorted_mass;
  std::vector<std::uint32_t> order;
};

void add_point_quad(Quadrupole& q, const Vec3& d, double m) {
  const double d2 = d.norm2();
  q[0] += m * (3.0 * d.x * d.x - d2);
  q[1] += m * 3.0 * d.x * d.y;
  q[2] += m * 3.0 * d.x * d.z;
  q[3] += m * (3.0 * d.y * d.y - d2);
  q[4] += m * 3.0 * d.y * d.z;
  q[5] += m * (3.0 * d.z * d.z - d2);
}

ReferenceTree reference_build(std::span<const Vec3> pos, std::span<const double> mass,
                              OctreeParams params) {
  const std::size_t n = pos.size();
  Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  if (n > 0) {
    lo = hi = pos[0];
    for (const auto& p : pos) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    }
  }
  double size = std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-12});
  size *= 1.0 + 1e-9;
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 q = (pos[i] - lo) / size;
    auto cell = [](double v) {
      auto c = static_cast<std::int64_t>(v * static_cast<double>(1ULL << kMortonBits));
      return static_cast<std::uint64_t>(std::clamp<std::int64_t>(c, 0, (1LL << kMortonBits) - 1));
    };
    keys[i] = morton_encode(cell(q.x), cell(q.y), cell(q.z));
  }
  ReferenceTree t;
  t.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) t.order[i] = i;
  std::stable_sort(t.order.begin(), t.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  std::vector<std::uint64_t> skeys(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.sorted_pos.push_back(pos[t.order[i]]);
    t.sorted_mass.push_back(mass[t.order[i]]);
    skeys[i] = keys[t.order[i]];
  }
  const int max_depth = std::min(params.max_depth, kMortonBits);
  NodeArrays& a = t.nodes;
  auto append = [&](unsigned k) {
    const auto at = static_cast<std::uint32_t>(a.size());
    a.resize(at + k);
    if (params.with_quadrupole) t.quads.resize(at + k);
    return at;
  };
  auto com_of = [&](std::uint32_t i) { return Vec3{a.comx[i], a.comy[i], a.comz[i]}; };
  auto set_moments = [&](std::uint32_t i, const Vec3& com, double m) {
    a.comx[i] = com.x;
    a.comy[i] = com.y;
    a.comz[i] = com.z;
    a.mass[i] = m;
  };
  auto build = [&](auto& self, std::uint32_t node, std::uint32_t lo_i, std::uint32_t hi_i,
                   int level, Vec3 center, double half) -> void {
    a.cx[node] = center.x;
    a.cy[node] = center.y;
    a.cz[node] = center.z;
    a.half[node] = half;
    a.first[node] = lo_i;
    a.count[node] = hi_i - lo_i;
    if (hi_i - lo_i <= params.leaf_capacity || level >= max_depth) {
      Vec3 com{};
      double m = 0;
      for (std::uint32_t i = lo_i; i < hi_i; ++i) {
        com += t.sorted_pos[i] * t.sorted_mass[i];
        m += t.sorted_mass[i];
      }
      set_moments(node, m > 0 ? com / m : center, m);
      if (params.with_quadrupole)
        for (std::uint32_t i = lo_i; i < hi_i; ++i)
          add_point_quad(t.quads[node], t.sorted_pos[i] - com_of(node), t.sorted_mass[i]);
      return;
    }
    const int shift = 3 * (kMortonBits - 1 - level);
    std::uint32_t bounds[9];
    bounds[0] = lo_i;
    std::uint32_t cur = lo_i;
    for (unsigned o = 0; o < 8; ++o) {
      while (cur < hi_i && ((skeys[cur] >> shift) & 7u) == o) ++cur;
      bounds[o + 1] = cur;
    }
    unsigned octs[8], nchild = 0;
    for (unsigned o = 0; o < 8; ++o)
      if (bounds[o + 1] != bounds[o]) octs[nchild++] = o;
    const std::uint32_t first_child = append(nchild);
    a.first_child[node] = first_child;
    a.nchildren[node] = nchild;
    Vec3 com{};
    double m = 0;
    for (unsigned c = 0; c < nchild; ++c) {
      const unsigned o = octs[c];
      const double q = half / 2;
      self(self, first_child + c, bounds[o], bounds[o + 1], level + 1,
           center + Vec3{(o & 1) ? q : -q, (o & 2) ? q : -q, (o & 4) ? q : -q}, q);
      com += com_of(first_child + c) * a.mass[first_child + c];
      m += a.mass[first_child + c];
    }
    set_moments(node, m > 0 ? com / m : center, m);
    if (params.with_quadrupole)
      for (std::uint32_t c = first_child; c < first_child + nchild; ++c) {
        for (std::size_t k = 0; k < 6; ++k) t.quads[node][k] += t.quads[c][k];
        add_point_quad(t.quads[node], com_of(c) - com_of(node), a.mass[c]);
      }
  };
  append(1);
  build(build, 0, 0, static_cast<std::uint32_t>(n), 0, lo + Vec3(size / 2, size / 2, size / 2),
        size / 2);
  return t;
}

/// Byte equality of two contiguous ranges.
template <class A, class B>
bool same_bytes(const A& a, const B& b) {
  const std::span x(a);
  const std::span y(b);
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

void expect_matches_reference(std::span<const Vec3> pos, std::span<const double> mass,
                              OctreeParams params, const std::string& what) {
  const Octree tree(pos, mass, params);
  const ReferenceTree ref = reference_build(pos, mass, params);
  const NodeArrays& a = tree.node_arrays();
  const NodeArrays& r = ref.nodes;
  ASSERT_EQ(a.size(), r.size()) << what;
  EXPECT_TRUE(same_bytes(a.cx, r.cx) && same_bytes(a.cy, r.cy) && same_bytes(a.cz, r.cz) &&
              same_bytes(a.half, r.half))
      << what << ": cell geometry";
  EXPECT_TRUE(same_bytes(a.comx, r.comx) && same_bytes(a.comy, r.comy) &&
              same_bytes(a.comz, r.comz) && same_bytes(a.mass, r.mass))
      << what << ": monopoles";
  EXPECT_TRUE(same_bytes(a.first_child, r.first_child) && same_bytes(a.nchildren, r.nchildren) &&
              same_bytes(a.first, r.first) && same_bytes(a.count, r.count))
      << what << ": topology";
  EXPECT_TRUE(same_bytes(tree.order(), ref.order)) << what << ": order";
  EXPECT_TRUE(same_bytes(tree.sorted_pos(), ref.sorted_pos)) << what << ": sorted positions";
  EXPECT_TRUE(same_bytes(tree.sorted_mass(), ref.sorted_mass)) << what << ": sorted masses";
  EXPECT_TRUE(same_bytes(tree.quads(), ref.quads)) << what << ": quadrupoles";
}

TEST(Octree, MatchesReferenceBuild) {
  struct Set {
    std::string name;
    std::vector<Vec3> pos;
  };
  std::vector<Set> sets;
  sets.push_back({"uniform", random_positions(5000, 71)});
  {
    std::vector<Vec3> p;
    for (const auto& q : core::plummer_particles(5000, 1.0, {0.4, 0.6, 0.5}, 0.02, 72))
      p.push_back(q.pos);
    sets.push_back({"plummer", p});
  }
  {
    // Many exact duplicates, in scattered input order: ties must fall in
    // index order.
    auto p = random_positions(400, 73);
    Rng rng(74);
    for (int k = 0; k < 1600; ++k) p.push_back(p[static_cast<std::size_t>(rng.uniform(0, 400))]);
    sets.push_back({"duplicates", p});
  }
  {
    // All but two in one finest cell of a box that the other two stretch
    // to the unit cube: the tree runs down to the key resolution.
    std::vector<Vec3> p{{0, 0, 0}, {1, 1, 1}};
    for (int k = 0; k < 40; ++k) p.push_back({0.3 + k * 1e-10, 0.3, 0.3 - k * 1e-10});
    sets.push_back({"one finest cell", p});
  }
  {
    // The step's input: a rank's locals (its box, some drifted slightly
    // out), then the ghosts it imports, images outside the unit cube at
    // coordinates in (-rcut, 0) and [1, 1 + rcut).
    const double rcut = 0.09;
    Rng rng(76);
    std::vector<Vec3> p;
    for (int k = 0; k < 3000; ++k)
      p.push_back({rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0)});
    for (int k = 0; k < 1500; ++k) {
      Vec3 q{rng.uniform(-rcut, 0.0), rng.uniform(1.0, 1.0 + rcut), rng.uniform(0.0, 1.0)};
      if (k % 3 == 0) q.z = rng.uniform(-rcut, 0.0);
      if (k % 3 == 1) q.z = rng.uniform(1.0, 1.0 + rcut);
      p.push_back(q);
    }
    p.push_back({-rcut * (1 - 1e-12), 1.0, 1.0});  // the extreme corners of the shell
    p.push_back({0.5, 1.0 + rcut * (1 - 1e-12), -rcut * (1 - 1e-12)});
    sets.push_back({"locals then ghost images", p});
  }
  {
    // A clump deep inside one finest-but-ten cell: the anchors stretch the
    // cube to the unit box, so every clump particle shares its top 30 key
    // bits (ten octal digits) -- the radix build must skip shared bits.
    const double cell = 1.0 / 1024;
    const Vec3 centre{(317 + 0.5) * cell, (600 + 0.5) * cell, (21 + 0.5) * cell};
    std::vector<Vec3> p{{0, 0, 0}, {1, 1, 1}};
    for (const auto& q : core::plummer_particles(6000, 1.0, centre, 2e-5, 77))
      if ((q.pos - centre).norm() < 0.3 * cell) p.push_back(q.pos);
    sets.push_back({"tight clump", p});
  }
  {
    // Points on finest-cell boundaries of the unit grid (dyadic
    // coordinates k / 2^21, and the coarse boundaries 1/2, 1/4, ...), where
    // the key's truncation decides the cell.
    std::vector<Vec3> p{{0, 0, 0}, {1, 1, 1}};
    Rng rng(78);
    const double finest = 1.0 / static_cast<double>(1 << kMortonBits);
    for (int k = 0; k < 2000; ++k) {
      Vec3 q;
      for (std::size_t a = 0; a < 3; ++a)
        q[a] = std::floor(rng.uniform() * static_cast<double>(1 << kMortonBits)) * finest;
      p.push_back(q);
    }
    for (int level = 1; level <= kMortonBits; ++level) {
      const double b = std::ldexp(1.0, -level);
      p.push_back({b, 0.5, 1 - b});
      p.push_back({b, b, b});
    }
    sets.push_back({"finest-cell boundaries", p});
  }
  sets.push_back({"single", {{0.3, 0.2, 0.9}}});
  sets.push_back({"empty", {}});

  for (const auto& set : sets) {
    Rng rng(75);
    std::vector<double> mass(set.pos.size());
    for (auto& m : mass) m = rng.uniform(0.5, 1.5);
    for (const std::uint32_t cap : {1u, 8u, 64u})
      for (const int depth : {3, 21})
        for (const bool quad : {false, true})
          expect_matches_reference(set.pos, mass, {cap, depth, quad},
                                   set.name + " cap " + std::to_string(cap) + " depth " +
                                       std::to_string(depth) + (quad ? " quad" : ""));
  }
}

class TraversalAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(TraversalAccuracy, NewtonWalkMatchesDirectWithinThetaBudget) {
  const double theta = GetParam();
  const auto pos = random_positions(800, 7);
  std::vector<double> mass(pos.size(), 1.0 / 800);

  std::vector<Vec3> direct(pos.size()), walked(pos.size());
  core::direct_newton(pos, mass, direct, 1e-8);

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = theta;
  tp.ncrit = 32;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;
  tree_accelerations(tree, tp, walked);

  std::vector<double> rel;
  for (std::size_t i = 0; i < pos.size(); ++i)
    rel.push_back((walked[i] - direct[i]).norm() / std::max(direct[i].norm(), 1e-10));
  // Monopole-only BH: rms relative error scales roughly as theta^2.
  EXPECT_LT(rms(rel), 0.05 * theta * theta + 1e-4) << "theta = " << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, TraversalAccuracy, ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Traversal, ThetaZeroIsExactDirectSum) {
  const auto pos = random_positions(200, 8);
  std::vector<double> mass(pos.size(), 1.0 / 200);
  std::vector<Vec3> direct(pos.size()), walked(pos.size());
  core::direct_newton(pos, mass, direct, 1e-8);

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.0;  // never accept a multipole
  tp.ncrit = 16;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;
  tree_accelerations(tree, tp, walked);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(walked[i].x, direct[i].x, 1e-9);
    EXPECT_NEAR(walked[i].y, direct[i].y, 1e-9);
    EXPECT_NEAR(walked[i].z, direct[i].z, 1e-9);
  }
}

TEST(Traversal, CutoffWalkMatchesDirectShortRange) {
  const auto pos = random_positions(600, 9);
  std::vector<double> mass(pos.size(), 1.0 / 600);
  const double rcut = 0.15, eps2 = 1e-10;

  std::vector<Vec3> direct(pos.size()), walked(pos.size());
  core::direct_short_range(pos, mass, direct, rcut, eps2);

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.0;  // exact: every source individually
  tp.rcut = rcut;
  tp.ncrit = 32;
  tp.eps2 = eps2;
  tp.kernel = KernelKind::kScalar;
  // Periodic: walk all 27 images.
  tree_accelerations(tree, tp, walked, all_images());

  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(walked[i].x, direct[i].x, 1e-8);
    EXPECT_NEAR(walked[i].y, direct[i].y, 1e-8);
    EXPECT_NEAR(walked[i].z, direct[i].z, 1e-8);
  }
}

TEST(Traversal, StatsCountInteractions) {
  const auto pos = random_positions(400, 10);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.ncrit = 50;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kScalar;
  std::vector<Vec3> acc(pos.size());
  const auto stats = tree_accelerations(tree, tp, acc);
  EXPECT_GT(stats.ngroups, 0u);
  EXPECT_EQ(stats.sum_ni, 400u);
  EXPECT_GT(stats.interactions, 0u);
  EXPECT_LE(stats.mean_ni(), 50.0);
  EXPECT_GT(stats.mean_nj(), 0.0);
}

TEST(Traversal, GroupSizeTradeoff) {
  // Larger <Ni> -> fewer groups and longer lists (the paper's knob).
  const auto pos = random_positions(2000, 11);
  std::vector<double> mass(pos.size(), 1.0);
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kScalar;

  tp.ncrit = 8;
  std::vector<Vec3> acc(pos.size());
  const auto small = tree_accelerations(tree, tp, acc);
  tp.ncrit = 256;
  std::fill(acc.begin(), acc.end(), Vec3{});
  const auto large = tree_accelerations(tree, tp, acc);
  EXPECT_GT(small.ngroups, large.ngroups);
  EXPECT_LT(small.mean_nj(), large.mean_nj());
}

TEST(Ghost, SelectsExactlyParticlesWithinRcut) {
  // Two domains split at x = 0.5; ghosts of rank 0 for rank 1 are the
  // particles within rcut of the [0.5, 1) slab (including across the wrap).
  const double rcut = 0.1;
  std::vector<Box> domains(2);
  domains[0] = {{0, 0, 0}, {0.5, 1, 1}};
  domains[1] = {{0.5, 0, 0}, {1, 1, 1}};

  std::vector<Vec3> pos{{0.45, 0.5, 0.5},   // near the cut: ghost for 1
                        {0.3, 0.5, 0.5},    // interior: not a ghost
                        {0.02, 0.5, 0.5}};  // near 0: ghost for 1 across wrap
  std::vector<double> mass{1, 2, 3};
  const auto exports = select_ghosts(pos, mass, domains, 0, rcut);
  ASSERT_EQ(exports.pos[1].size(), 2u);
  EXPECT_TRUE(exports.pos[0].empty());  // nothing to self
  // The wrap-around ghost arrives unwrapped at x slightly above 1.
  EXPECT_NEAR(exports.pos[1][1].x, 1.02, 1e-12);
  EXPECT_DOUBLE_EQ(exports.mass[1][1], 3.0);
}

TEST(Ghost, GhostForceEqualsFullShortRange) {
  // Rank-0 particles with ghosts from "rank 1" reproduce the full periodic
  // short-range force on rank-0 targets.
  Rng rng(13);
  const double rcut = 0.12;
  std::vector<Vec3> all(300);
  for (auto& p : all) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  std::vector<double> mass(all.size(), 1.0 / 300);

  std::vector<Box> domains(2);
  domains[0] = {{0, 0, 0}, {0.5, 1, 1}};
  domains[1] = {{0.5, 0, 0}, {1, 1, 1}};
  std::vector<Vec3> local, remote;
  std::vector<double> lmass, rmass;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (domains[0].contains(all[i])) {
      local.push_back(all[i]);
      lmass.push_back(mass[i]);
    } else {
      remote.push_back(all[i]);
      rmass.push_back(mass[i]);
    }
  }
  const auto exports = select_ghosts(remote, rmass, domains, 1, rcut);
  // Periodic self-ghosts: domain 0 spans full y/z, so its own particles
  // serve it again through shifted images (exactly what the parallel
  // driver receives via the self slot of the alltoallv).
  const auto self_exports = select_ghosts(local, lmass, domains, 0, rcut);
  auto combined = local;
  auto cmass = lmass;
  combined.insert(combined.end(), exports.pos[0].begin(), exports.pos[0].end());
  cmass.insert(cmass.end(), exports.mass[0].begin(), exports.mass[0].end());
  combined.insert(combined.end(), self_exports.pos[0].begin(), self_exports.pos[0].end());
  cmass.insert(cmass.end(), self_exports.mass[0].begin(), self_exports.mass[0].end());

  // Reference: full periodic direct short-range on all particles.
  std::vector<Vec3> ref_all(all.size());
  core::direct_short_range(all, mass, ref_all, rcut, 1e-10);

  Octree tree(combined, cmass);
  TraversalParams tp;
  tp.theta = 0.0;
  tp.rcut = rcut;
  tp.ncrit = 16;
  tp.eps2 = 1e-10;
  tp.kernel = KernelKind::kScalar;
  std::vector<Vec3> acc(combined.size());
  tree_accelerations_targets(tree, tp, local.size(), acc);

  std::size_t li = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!domains[0].contains(all[i])) continue;
    EXPECT_NEAR(acc[li].x, ref_all[i].x, 1e-8);
    EXPECT_NEAR(acc[li].y, ref_all[i].y, 1e-8);
    EXPECT_NEAR(acc[li].z, ref_all[i].z, 1e-8);
    ++li;
  }
}


/// The ghost selection as first written: every particle against every
/// destination through all 27 periodic images, in that nesting order.
GhostExport reference_ghosts(std::span<const Vec3> pos, std::span<const double> mass,
                             std::span<const Box> domains, int self_rank, double rcut) {
  GhostExport out;
  out.pos.resize(domains.size());
  out.mass.resize(domains.size());
  const double rcut2 = rcut * rcut;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const Vec3 q = pos[i];
    for (std::size_t d = 0; d < domains.size(); ++d) {
      double ax[3][3];
      for (std::size_t a = 0; a < 3; ++a)
        for (int s = 0; s < 3; ++s) {
          const double v = q[a] + static_cast<double>(s - 1);
          const double lo = domains[d].lo[a], hi = domains[d].hi[a];
          ax[a][s] = v < lo ? lo - v : (v >= hi ? v - hi : 0.0);
        }
      for (int sx = 0; sx < 3; ++sx)
        for (int sy = 0; sy < 3; ++sy)
          for (int sz = 0; sz < 3; ++sz) {
            if (static_cast<int>(d) == self_rank && sx == 1 && sy == 1 && sz == 1) continue;
            const double dx2 = ax[0][sx] * ax[0][sx];
            const double dy2 = dx2 + ax[1][sy] * ax[1][sy];
            if (dx2 > rcut2 || dy2 > rcut2 || dy2 + ax[2][sz] * ax[2][sz] > rcut2) continue;
            out.pos[d].push_back(q + Vec3{static_cast<double>(sx - 1),
                                          static_cast<double>(sy - 1),
                                          static_cast<double>(sz - 1)});
            out.mass[d].push_back(mass[i]);
          }
    }
  }
  return out;
}

/// Boxes of a dims[0] x dims[1] x dims[2] grid with uneven cuts (x cuts
/// shared, y cuts per x slab, z cuts per column, like the multi-section
/// decomposition), rank = (i * dims[1] + j) * dims[2] + k.
std::vector<Box> uneven_boxes(std::array<int, 3> dims, Rng& rng) {
  auto cuts = [&](int n) {
    std::vector<double> c{0.0};
    for (int k = 1; k < n; ++k)
      c.push_back((k + rng.uniform(-0.3, 0.3)) / static_cast<double>(n));
    c.push_back(1.0);
    return c;
  };
  std::vector<Box> boxes;
  const auto xc = cuts(dims[0]);
  for (int i = 0; i < dims[0]; ++i) {
    const auto yc = cuts(dims[1]);
    for (int j = 0; j < dims[1]; ++j) {
      const auto zc = cuts(dims[2]);
      for (int k = 0; k < dims[2]; ++k)
        boxes.push_back({{xc[i], yc[j], zc[k]}, {xc[i + 1], yc[j + 1], zc[k + 1]}});
    }
  }
  return boxes;
}

TEST(Ghost, MatchesReferenceSelection) {
  for (const auto dims : {std::array{1, 1, 1}, std::array{2, 1, 1}, std::array{2, 2, 2},
                          std::array{3, 3, 1}}) {
    Rng rng(81);
    const auto boxes = uneven_boxes(dims, rng);
    for (const double rcut : {0.05, 0.12, 0.3}) {
      for (int r = 0; r < static_cast<int>(boxes.size()); ++r) {
        // The rank's particles: inside its box, a quarter of them drifted
        // up to 1e-3 outside it, and some exactly on its faces and corners.
        const Box& own = boxes[static_cast<std::size_t>(r)];
        std::vector<Vec3> pos;
        for (int k = 0; k < 1500; ++k) {
          Vec3 q;
          for (std::size_t a = 0; a < 3; ++a) q[a] = rng.uniform(own.lo[a], own.hi[a]);
          if (k % 4 == 0)
            for (std::size_t a = 0; a < 3; ++a) q[a] += rng.uniform(-1e-3, 1e-3);
          pos.push_back(q);
        }
        pos.push_back(own.lo);
        pos.push_back({own.lo.x, own.hi.y, own.lo.z});
        pos.push_back({own.lo.x, 0.5 * (own.lo.y + own.hi.y), own.lo.z - 1e-3});
        std::vector<double> mass(pos.size());
        for (auto& m : mass) m = rng.uniform(0.5, 1.5);

        const auto got = select_ghosts(pos, mass, boxes, r, rcut);
        const auto want = reference_ghosts(pos, mass, boxes, r, rcut);
        ASSERT_EQ(got.pos.size(), boxes.size());
        std::size_t exported = 0;
        for (std::size_t d = 0; d < boxes.size(); ++d) {
          const std::string what = "dims " + std::to_string(dims[0]) + "x" +
                                   std::to_string(dims[1]) + "x" + std::to_string(dims[2]) +
                                   " rcut " + std::to_string(rcut) + " rank " +
                                   std::to_string(r) + " -> " + std::to_string(d);
          EXPECT_TRUE(same_bytes(got.pos[d], want.pos[d])) << what << ": positions";
          EXPECT_TRUE(same_bytes(got.mass[d], want.mass[d])) << what << ": masses";
          exported += want.pos[d].size();
        }
        EXPECT_GT(exported, 0u);
        if (dims == std::array{1, 1, 1}) {
          EXPECT_FALSE(want.pos[0].empty());  // periodic self-ghosts
        }
      }
    }
  }
}

TEST(Ghost, MatchesReferenceSelectionAroundSimdWidths) {
  // Particle counts below, at and above one and two vector widths (8
  // doubles), so the filter's vector body and its scalar tail both run;
  // boxes that take the nearest-image path and boxes that take the exact
  // image test.
  Rng rng(82);
  for (const auto dims : {std::array{2, 2, 2}, std::array{1, 2, 2}}) {
    const auto boxes = uneven_boxes(dims, rng);
    for (const double rcut : {0.05, 0.3}) {
      for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
        const Box& own = boxes[0];
        std::vector<Vec3> pos;
        std::vector<double> mass;
        for (std::size_t k = 0; k < n; ++k) {
          Vec3 q;
          for (std::size_t a = 0; a < 3; ++a) q[a] = rng.uniform(own.lo[a], own.hi[a]);
          pos.push_back(q);
          mass.push_back(rng.uniform(0.5, 1.5));
        }
        const auto got = select_ghosts(pos, mass, boxes, 0, rcut);
        const auto want = reference_ghosts(pos, mass, boxes, 0, rcut);
        for (std::size_t d = 0; d < boxes.size(); ++d) {
          const std::string what = "n " + std::to_string(n) + " rcut " + std::to_string(rcut) +
                                   " -> " + std::to_string(d);
          EXPECT_TRUE(same_bytes(got.pos[d], want.pos[d])) << what << ": positions";
          EXPECT_TRUE(same_bytes(got.mass[d], want.mass[d])) << what << ": masses";
        }
      }
    }
  }
}

TEST(Quadrupole, KnownTensorForSymmetricPair) {
  // Two equal masses at +-d along x: Q_xx = 4 m d^2, Q_yy = Q_zz = -2 m d^2.
  const double d = 0.01, m = 0.5;
  const std::vector<Vec3> pos{{0.5 - d, 0.5, 0.5}, {0.5 + d, 0.5, 0.5}};
  const std::vector<double> mass{m, m};
  OctreeParams params;
  params.with_quadrupole = true;
  params.leaf_capacity = 8;
  Octree tree(pos, mass, params);
  const Quadrupole& q = tree.quads()[0];
  EXPECT_NEAR(q[0], 4 * m * d * d, 1e-15);
  EXPECT_NEAR(q[3], -2 * m * d * d, 1e-15);
  EXPECT_NEAR(q[5], -2 * m * d * d, 1e-15);
  EXPECT_NEAR(q[1], 0.0, 1e-18);
  // Trace-free.
  EXPECT_NEAR(q[0] + q[3] + q[5], 0.0, 1e-18);
}

TEST(Quadrupole, ParallelAxisCombinationMatchesDirect) {
  // Root quadrupole from a deep tree must equal the direct tensor over
  // all particles about the global center of mass.
  const auto pos = random_positions(400, 21);
  Rng rng(22);
  std::vector<double> mass(pos.size());
  for (auto& m : mass) m = rng.uniform(0.5, 1.5);
  OctreeParams params;
  params.with_quadrupole = true;
  params.leaf_capacity = 4;  // force a deep hierarchy
  Octree tree(pos, mass, params);

  Vec3 com = tree.root().com;
  std::array<double, 6> direct{};
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const Vec3 d = pos[i] - com;
    const double d2 = d.norm2();
    direct[0] += mass[i] * (3 * d.x * d.x - d2);
    direct[1] += mass[i] * 3 * d.x * d.y;
    direct[2] += mass[i] * 3 * d.x * d.z;
    direct[3] += mass[i] * (3 * d.y * d.y - d2);
    direct[4] += mass[i] * 3 * d.y * d.z;
    direct[5] += mass[i] * (3 * d.z * d.z - d2);
  }
  for (int k = 0; k < 6; ++k)
    EXPECT_NEAR(tree.quads()[0][static_cast<std::size_t>(k)],
                direct[static_cast<std::size_t>(k)], 1e-10);
}

TEST(Quadrupole, KernelImprovesFarFieldOverMonopole) {
  // A compact random cluster seen from afar: the quadrupole-corrected node
  // force must be much closer to the direct sum than the monopole alone.
  Rng rng(23);
  const double s = 0.02;
  std::vector<Vec3> cluster(50);
  std::vector<double> mass(50);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster[i] = {0.5 + rng.uniform(-s, s), 0.5 + rng.uniform(-s, s),
                  0.5 + rng.uniform(-s, s)};
    mass[i] = rng.uniform(0.5, 1.5);
  }
  OctreeParams params;
  params.with_quadrupole = true;
  Octree tree(cluster, mass, params);

  const std::vector<Vec3> target{{0.5 + 0.2, 0.5 + 0.13, 0.5 - 0.08}};
  std::vector<Vec3> direct(1), mono(1), quad(1);
  // direct sum
  for (std::size_t j = 0; j < cluster.size(); ++j) {
    const Vec3 d = cluster[j] - target[0];
    const double r2 = d.norm2();
    direct[0] += d * (mass[j] / (r2 * std::sqrt(r2)));
  }
  // monopole only
  {
    const Vec3 d = tree.root().com - target[0];
    const double r2 = d.norm2();
    mono[0] += d * (tree.root().mass / (r2 * std::sqrt(r2)));
  }
  // monopole + quadrupole
  {
    pp::QuadSource src{tree.root().com, tree.root().mass, tree.quads()[0]};
    pp::pp_kernel_quadrupole(target, quad, std::span<const pp::QuadSource>(&src, 1), 0.0);
  }
  const double mono_err = (mono[0] - direct[0]).norm();
  const double quad_err = (quad[0] - direct[0]).norm();
  EXPECT_LT(quad_err, 0.25 * mono_err);
}

TEST(Quadrupole, TreeWalkBeatsMonopoleAtSameTheta) {
  auto particles = core::plummer_particles(800, 1.0, {0.5, 0.5, 0.5}, 0.05, 24);
  std::vector<Vec3> pos;
  for (const auto& p : particles) pos.push_back(p.pos);
  std::vector<double> mass(pos.size(), 1.0 / 800);

  std::vector<Vec3> direct(pos.size());
  core::direct_newton(pos, mass, direct, 1e-8);

  auto walk_error = [&](bool quadrupole) {
    core::TreeForceParams tp;
    tp.theta = 0.6;
    tp.eps2 = 1e-8;
    tp.quadrupole = quadrupole;
    std::vector<Vec3> acc(pos.size());
    core::tree_newton(pos, mass, acc, tp);
    std::vector<double> rel;
    for (std::size_t i = 0; i < pos.size(); ++i)
      rel.push_back((acc[i] - direct[i]).norm() / std::max(direct[i].norm(), 1e-10));
    return rms(rel);
  };
  const double mono = walk_error(false);
  const double quad = walk_error(true);
  EXPECT_LT(quad, 0.4 * mono);
}


TEST(Traversal, MultithreadedMatchesSingleThreaded) {
  // The MPI/OpenMP hybrid structure: the group loop is thread-parallel;
  // forces must be identical regardless of the worker count.
  const auto pos = random_positions(2000, 31);
  std::vector<double> mass(pos.size(), 1.0 / 2000);
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.5;
  tp.ncrit = 64;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kScalar;

  set_num_threads(1);
  std::vector<Vec3> acc1(pos.size());
  const auto s1 = tree_accelerations(tree, tp, acc1);
  set_num_threads(4);
  std::vector<Vec3> acc4(pos.size());
  const auto s4 = tree_accelerations(tree, tp, acc4);
  set_num_threads(1);

  EXPECT_EQ(s1.interactions, s4.interactions);
  EXPECT_EQ(s1.ngroups, s4.ngroups);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_DOUBLE_EQ(acc1[i].x, acc4[i].x);
    EXPECT_DOUBLE_EQ(acc1[i].y, acc4[i].y);
    EXPECT_DOUBLE_EQ(acc1[i].z, acc4[i].z);
  }
}

TEST(Traversal, BitwiseDeterministicAcrossPoolSizes) {
  // Stronger form: the Newton kernel with an oversubscribed 8-thread pool
  // (this box may have fewer cores -- the steal pattern then varies wildly
  // between runs) must reproduce the single-thread forces *bitwise* and
  // the full traversal statistics exactly.  This is the property that lets
  // distributed runs validate against each other regardless of the
  // per-rank thread count.
  const auto pos = random_positions(3000, 77);
  std::vector<double> mass(pos.size());
  for (std::size_t i = 0; i < mass.size(); ++i)
    mass[i] = (1.0 + static_cast<double>(i % 7)) / 3000.0;
  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.6;
  tp.ncrit = 32;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;

  set_num_threads(1);
  std::vector<Vec3> acc1(pos.size());
  const auto s1 = tree_accelerations(tree, tp, acc1);
  for (const std::size_t nt : {2, 8}) {
    set_num_threads(nt);
    std::vector<Vec3> accn(pos.size());
    const auto sn = tree_accelerations(tree, tp, accn);
    EXPECT_EQ(s1.ngroups, sn.ngroups);
    EXPECT_EQ(s1.sum_ni, sn.sum_ni);
    EXPECT_EQ(s1.sum_nj, sn.sum_nj);
    EXPECT_EQ(s1.interactions, sn.interactions);
    EXPECT_EQ(s1.nodes_visited, sn.nodes_visited);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_EQ(acc1[i].x, accn[i].x) << nt << " threads, particle " << i;
      EXPECT_EQ(acc1[i].y, accn[i].y) << nt << " threads, particle " << i;
      EXPECT_EQ(acc1[i].z, accn[i].z) << nt << " threads, particle " << i;
    }
  }
  set_num_threads(1);
}


TEST(GroupCosts, SumToTraversalStats) {
  // Locals followed by "ghosts" (sources beyond n_targets), the parallel
  // rank layout: the per-group cost records must tile the traversal stats
  // exactly -- they are the same counters, just not collapsed.
  const auto pos = random_positions(600, 17);
  std::vector<double> mass(pos.size(), 1.0 / 600);
  const std::size_t n_targets = 400;

  Octree tree(pos, mass);
  TraversalParams tp;
  tp.theta = 0.5;
  tp.rcut = 0.25;
  tp.ncrit = 32;
  tp.eps2 = 1e-10;
  tp.kernel = KernelKind::kScalar;

  std::vector<Vec3> acc(pos.size());
  std::vector<GroupCost> costs;
  const auto stats = tree_accelerations_targets(tree, tp, n_targets, acc, {}, nullptr, &costs);

  ASSERT_EQ(costs.size(), stats.ngroups);
  std::uint64_t ni = 0, nj = 0, interactions = 0, ghosts = 0;
  for (const auto& gc : costs) {
    ni += gc.ni;
    nj += gc.nj;
    interactions += gc.interactions;
    ghosts += gc.ghost_sources;
    EXPECT_EQ(gc.interactions, static_cast<std::uint64_t>(gc.ni) * gc.nj);
    EXPECT_GE(gc.ni, 1u);  // ghost-only cells form no group
    EXPECT_GE(gc.walk_s, 0.0);
    EXPECT_GE(gc.force_s, 0.0);
    EXPECT_LT(gc.node, tree.num_nodes());
  }
  EXPECT_EQ(ni, stats.sum_ni);
  EXPECT_EQ(nj, stats.sum_nj);
  EXPECT_EQ(interactions, stats.interactions);
  EXPECT_EQ(ghosts, stats.ghost_sources);
  EXPECT_EQ(ni, n_targets);  // every target sits in exactly one group

  // With a 0.25 cutoff on clustered-random data some group actually opened
  // a ghost leaf; and when every particle is a target the count is zero.
  EXPECT_GT(stats.ghost_sources, 0u);
  std::vector<Vec3> acc_all(pos.size());
  const auto stats_all = tree_accelerations(tree, tp, acc_all);
  EXPECT_EQ(stats_all.ghost_sources, 0u);

  // Determinism modulo timings: a second run produces identical records.
  std::vector<Vec3> acc2(pos.size());
  std::vector<GroupCost> costs2;
  (void)tree_accelerations_targets(tree, tp, n_targets, acc2, {}, nullptr, &costs2);
  ASSERT_EQ(costs2.size(), costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(costs2[i].node, costs[i].node);
    EXPECT_EQ(costs2[i].ni, costs[i].ni);
    EXPECT_EQ(costs2[i].nj, costs[i].nj);
    EXPECT_EQ(costs2[i].ghost_sources, costs[i].ghost_sources);
  }
}

/// Locals first, then "ghosts": `n_local` particles of a uniform box
/// followed by the rest, the parallel rank layout.
struct LocalsAndGhosts {
  std::vector<Vec3> pos;
  std::vector<double> mass;
  std::size_t n_local = 0;
};

/// The targets are the particles inside [0, corner)^3; everything else is
/// a ghost (source only).
LocalsAndGhosts corner_targets(std::size_t n, double corner, std::uint64_t seed) {
  LocalsAndGhosts out;
  std::vector<Vec3> ghosts;
  for (const Vec3& p : random_positions(n, seed)) {
    if (p.x < corner && p.y < corner && p.z < corner)
      out.pos.push_back(p);
    else
      ghosts.push_back(p);
  }
  out.n_local = out.pos.size();
  out.pos.insert(out.pos.end(), ghosts.begin(), ghosts.end());
  out.mass.assign(out.pos.size(), 1.0 / static_cast<double>(n));
  return out;
}

TEST(Traversal, TargetGroupsMatchDirectShortRange) {
  // Groups of targets alone, walked against their tight boxes, lose no
  // source: at theta = 0 every local's force is the direct short-range sum
  // over locals and ghosts, as for the all-target walk.  At theta = 0.5
  // both stay within the same multipole budget of it.
  const auto lg = corner_targets(3000, 0.6, 29);
  ASSERT_GT(lg.n_local, 100u);
  ASSERT_LT(lg.n_local, lg.pos.size());
  const double rcut = 0.2, eps2 = 1e-8;
  std::vector<Vec3> direct(lg.pos.size());
  core::direct_short_range(lg.pos, lg.mass, direct, rcut, eps2);

  Octree tree(lg.pos, lg.mass);
  TraversalParams tp;
  tp.rcut = rcut;
  tp.ncrit = 32;
  tp.eps2 = eps2;
  tp.kernel = KernelKind::kScalar;
  const auto& images = all_images();
  for (const double theta : {0.0, 0.5}) {
    tp.theta = theta;
    std::vector<Vec3> all(lg.pos.size()), mine(lg.n_local);
    (void)tree_accelerations(tree, tp, all, images);
    (void)tree_accelerations_targets(tree, tp, lg.n_local, mine, images);
    double err_all = 0, err_mine = 0, norm = 0;
    for (std::size_t i = 0; i < lg.n_local; ++i) {
      if (theta == 0.0) {
        EXPECT_NEAR(mine[i].x, direct[i].x, 1e-8) << i;
        EXPECT_NEAR(mine[i].y, direct[i].y, 1e-8) << i;
        EXPECT_NEAR(mine[i].z, direct[i].z, 1e-8) << i;
      }
      err_all += (all[i] - direct[i]).norm2();
      err_mine += (mine[i] - direct[i]).norm2();
      norm += direct[i].norm2();
    }
    const double rms_all = std::sqrt(err_all / norm), rms_mine = std::sqrt(err_mine / norm);
    std::printf("[ target groups ] theta %.1f: rms error all-target %.3e, targets-only %.3e\n",
                theta, rms_all, rms_mine);
    EXPECT_LE(rms_mine, 1.5 * rms_all + 1e-12) << theta;
  }
}

TEST(Traversal, GhostOnlyGroupsAreNotWalked) {
  // Targets confined to one corner: the groups elsewhere own no target
  // and cost nothing, so the walk touches a small fraction of the nodes
  // the all-target walk does.
  const auto lg = corner_targets(4000, 0.3, 37);
  Octree tree(lg.pos, lg.mass);
  TraversalParams tp;
  tp.theta = 0.5;
  tp.ncrit = 16;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kPhantom;

  std::vector<Vec3> all(lg.pos.size()), mine(lg.n_local);
  const auto s_all = tree_accelerations(tree, tp, all);
  std::vector<GroupCost> costs;
  const auto s_mine = tree_accelerations_targets(tree, tp, lg.n_local, mine, {}, nullptr, &costs);
  EXPECT_LT(10 * s_mine.nodes_visited, s_all.nodes_visited);
  EXPECT_LT(10 * s_mine.ngroups, s_all.ngroups);
  EXPECT_EQ(s_mine.sum_ni, lg.n_local);
  EXPECT_EQ(costs.size(), s_mine.ngroups);
  for (const auto& gc : costs) EXPECT_GE(gc.ni, 1u);
}

// ---------------------------------------------------------------------------
// Block walk against a level-order queue walk and a recursive walk.

double box_box_dist2(const Vec3& c1, const Vec3& h1, const Vec3& c2, double h2) {
  double d2 = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    const double gap = std::abs(c1[a] - c2[a]) - (h1[a] + h2);
    if (gap > 0) d2 += gap * gap;
  }
  return d2;
}

double point_box_dist2(const Vec3& p, const Vec3& c, const Vec3& h) {
  double d2 = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    const double gap = std::abs(p[a] - c[a]) - h[a];
    if (gap > 0) d2 += gap * gap;
  }
  return d2;
}

enum class RefClass { kPruned, kDropped, kAccept, kLeaf, kOpen };

/// The walk predicates of walk.hpp, one node at a time.
RefClass reference_class(const TreeNode& node, const GroupBox& group, double theta, double rcut,
                         const Vec3& offset) {
  const Vec3 node_center = node.center + offset;
  const double bb = box_box_dist2(group.center, group.half, node_center, node.half);
  if (std::isfinite(rcut) && bb > rcut * rcut) return RefClass::kPruned;
  const double dcom2 = point_box_dist2(node.com + offset, group.center, group.half);
  const double size = 2.0 * node.half;
  if (dcom2 > 0 && size * size < theta * theta * dcom2 && bb > 0)
    return std::isfinite(rcut) && dcom2 >= rcut * rcut ? RefClass::kDropped : RefClass::kAccept;
  return node.is_leaf() ? RefClass::kLeaf : RefClass::kOpen;
}

/// A reference group walk: the recursive walk (children in index order)
/// or a plain FIFO queue walk whose list is accepted nodes in visit order
/// and then the opened leaves' particles -- the level order the block
/// walk must reproduce bitwise.
struct ReferenceWalker {
  const Octree& tree;
  GroupBox group;
  double theta = 0.5;
  double rcut = std::numeric_limits<double>::infinity();
  Vec3 offset;
  pp::InteractionList* list = nullptr;
  std::vector<pp::QuadSource>* quad_list = nullptr;
  std::uint32_t ghost_from = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t nodes_visited = 0;
  std::uint64_t ghost_sources = 0;
  bool keep_dropped = false;  ///< list the nodes the past-cutoff rule drops
  std::uint64_t dropped = 0;  ///< nodes that rule dropped

  void accept(std::uint32_t ni) {
    const TreeNode node = tree.node(ni);
    if (quad_list)
      quad_list->push_back({node.com + offset, node.mass, tree.quads()[ni]});
    else
      list->add(node.com + offset, node.mass);
  }

  void open_leaf(std::uint32_t ni) {
    const TreeNode node = tree.node(ni);
    for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
      list->add(tree.sorted_pos()[i] + offset, tree.sorted_mass()[i]);
      if (ghost_from < tree.num_particles() && tree.original_index(i) >= ghost_from)
        ++ghost_sources;
    }
  }

  void recursive(std::uint32_t ni) {
    const TreeNode node = tree.node(ni);
    ++nodes_visited;
    if (node.count == 0) return;
    switch (reference_class(node, group, theta, rcut, offset)) {
      case RefClass::kPruned:
        return;
      case RefClass::kDropped:
        ++dropped;
        if (!keep_dropped) return;
        [[fallthrough]];
      case RefClass::kAccept:
        return accept(ni);
      case RefClass::kLeaf:
        return open_leaf(ni);
      case RefClass::kOpen:
        for (std::uint32_t c = 0; c < node.nchildren; ++c) recursive(node.first_child + c);
    }
  }

  void level_order() {
    if (tree.node(0).count == 0) {
      ++nodes_visited;
      return;
    }
    std::deque<std::uint32_t> queue{0};
    std::vector<std::uint32_t> leaves;
    while (!queue.empty()) {
      const std::uint32_t ni = queue.front();
      queue.pop_front();
      ++nodes_visited;
      const TreeNode node = tree.node(ni);
      switch (reference_class(node, group, theta, rcut, offset)) {
        case RefClass::kPruned:
        case RefClass::kDropped:
          break;
        case RefClass::kAccept:
          accept(ni);
          break;
        case RefClass::kLeaf:
          leaves.push_back(ni);
          break;
        case RefClass::kOpen:
          for (std::uint32_t c = 0; c < node.nchildren; ++c) queue.push_back(node.first_child + c);
      }
    }
    for (const std::uint32_t leaf : leaves) open_leaf(leaf);
  }
};

using Entry = std::array<double, 10>;  ///< com/position, mass, quadrupole

std::vector<Entry> entries(const pp::InteractionList& list) {
  std::vector<Entry> out(list.size());
  for (std::size_t k = 0; k < list.size(); ++k)
    out[k] = {list.x[k], list.y[k], list.z[k], list.m[k]};
  return out;
}

std::vector<Entry> entries(const std::vector<pp::QuadSource>& q) {
  std::vector<Entry> out(q.size());
  for (std::size_t k = 0; k < q.size(); ++k)
    out[k] = {q[k].com.x,  q[k].com.y,  q[k].com.z,  q[k].mass,    q[k].quad[0],
              q[k].quad[1], q[k].quad[2], q[k].quad[3], q[k].quad[4], q[k].quad[5]};
  return out;
}

bool same_bits(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Entry)) == 0);
}

/// Entries sorted by their bit patterns: equal multisets compare equal.
std::vector<Entry> as_multiset(std::vector<Entry> e) {
  std::sort(e.begin(), e.end(), [](const Entry& a, const Entry& b) {
    return std::memcmp(a.data(), b.data(), sizeof(Entry)) < 0;
  });
  return e;
}

std::vector<WalkClassifier> runnable_classifiers() {
  std::vector<WalkClassifier> out{WalkClassifier::kPortable};
  if (walk_classifier_available(WalkClassifier::kAvx512)) out.push_back(WalkClassifier::kAvx512);
  return out;
}

/// The tree-order indices of the targets (original index < n_targets) in
/// group node `g`.
std::vector<std::uint32_t> group_targets(const Octree& tree, std::uint32_t g,
                                         std::size_t n_targets) {
  std::vector<std::uint32_t> out;
  const TreeNode node = tree.node(g);
  for (std::uint32_t i = node.first; i < node.first + node.count; ++i)
    if (tree.original_index(i) < n_targets) out.push_back(i);
  return out;
}

struct WalkTotals {
  std::uint64_t nodes_visited = 0, ghost_sources = 0, entries = 0;
};

/// Walk every target group of `tree` (targets: original index <
/// ghost_from) with the two reference walks and with the block walk under
/// each runnable classifier.  The block walk's lists (monopole and, when
/// the tree has quadrupoles, quadrupole) must be bitwise the level-order
/// reference's, and as multisets the recursive reference's; the counters
/// must agree exactly.  Returns the reference totals.
WalkTotals expect_walks_agree(const Octree& tree, double theta, double rcut,
                              std::span<const Vec3> offsets, std::uint32_t ghost_from,
                              std::uint32_t ncrit, const std::string& what) {
  WalkTotals totals;
  const std::vector<std::uint32_t> groups = tree.groups(ncrit, ghost_from);
  const bool with_quads = !tree.quads().empty();
  WalkScratch scratch;
  // The empty tree has no group; its root is walked with an empty box.
  const std::size_t walks = std::max<std::size_t>(groups.size(), tree.num_particles() == 0);
  for (std::size_t gi = 0; gi < walks; ++gi) {
    const GroupBox box =
        groups.empty() ? GroupBox{} : target_box(tree, group_targets(tree, groups[gi], ghost_from));
    for (const bool quad : {false, true}) {
      if (quad && !with_quads) continue;
      pp::InteractionList level_list, rec_list;
      std::vector<pp::QuadSource> level_quads, rec_quads;
      ReferenceWalker level{tree, box, theta, rcut, {}, &level_list,
                            quad ? &level_quads : nullptr, ghost_from};
      ReferenceWalker rec{tree, box, theta, rcut, {}, &rec_list,
                          quad ? &rec_quads : nullptr, ghost_from};
      for (const Vec3& off : offsets) {
        level.offset = rec.offset = off;
        level.level_order();
        rec.recursive(0);
      }
      const std::string where_ref = what + " group " + std::to_string(gi) + (quad ? " quad" : "");
      EXPECT_TRUE(same_bits(as_multiset(entries(level_list)), as_multiset(entries(rec_list))))
          << where_ref;
      EXPECT_TRUE(same_bits(as_multiset(entries(level_quads)), as_multiset(entries(rec_quads))))
          << where_ref;
      EXPECT_EQ(level.nodes_visited, rec.nodes_visited) << where_ref;
      EXPECT_EQ(level.ghost_sources, rec.ghost_sources) << where_ref;
      if (!quad) {
        totals.nodes_visited += level.nodes_visited;
        totals.ghost_sources += level.ghost_sources;
        totals.entries += level_list.size();
      }
      for (const WalkClassifier c : runnable_classifiers()) {
        pp::InteractionList list;
        std::vector<pp::QuadSource> quads;
        WalkSink sink{&list, quad ? &quads : nullptr, ghost_from};
        walk_group(tree, box, theta, rcut, offsets, sink, scratch, c);
        const std::string where = where_ref + " classifier " + walk_classifier_name(c);
        EXPECT_TRUE(same_bits(entries(list), entries(level_list))) << where;
        EXPECT_TRUE(same_bits(entries(quads), entries(level_quads))) << where;
        EXPECT_EQ(sink.nodes_visited, level.nodes_visited) << where;
        EXPECT_EQ(sink.ghost_sources, level.ghost_sources) << where;
      }
    }
  }
  return totals;
}

TEST(BlockWalk, ListsAreBitwiseTheRecursiveWalks) {
  std::printf("[ block walk ] classifiers run:");
  for (const WalkClassifier c : runnable_classifiers()) std::printf(" %s", walk_classifier_name(c));
  std::printf("%s\n", walk_classifier_available(WalkClassifier::kAvx512)
                          ? ""
                          : " (no AVX-512F on this CPU)");

  const std::size_t n = 500;
  std::vector<Vec3> plummer;
  for (const auto& p : core::plummer_particles(n, 1.0, {0.5, 0.5, 0.5}, 0.05, 51))
    plummer.push_back(p.pos);
  const std::vector<std::pair<const char*, std::vector<Vec3>>> ics{
      {"uniform", random_positions(n, 50)}, {"plummer", plummer}};
  Rng rng(52);
  std::vector<double> mass(n);
  for (auto& m : mass) m = rng.uniform(0.5, 1.5) / static_cast<double>(n);
  const Vec3 home{0, 0, 0};
  // Particles past index ghost_from stand in for imported ghosts.
  const auto ghost_from = static_cast<std::uint32_t>(2 * n / 3);

  // Leaves of up to 20 particles take the leaf copy past one 8-lane block.
  for (const auto& [ic, pos] : ics)
    for (const std::uint32_t leaf_capacity : {1u, 8u, 20u}) {
      Octree tree(pos, mass, {leaf_capacity, 21, /*with_quadrupole=*/true});
      for (const double theta : {0.3, 0.5, 0.8})
        for (const double rcut : {0.15, std::numeric_limits<double>::infinity()})
          for (const bool periodic : {false, true}) {
            const std::span<const Vec3> offsets =
                periodic ? std::span<const Vec3>(all_images()) : std::span<const Vec3>(&home, 1);
            const std::string what = std::string(ic) + " leaf " + std::to_string(leaf_capacity) +
                                     " theta " + std::to_string(theta) + " rcut " +
                                     std::to_string(rcut) + (periodic ? " 27 images" : "");
            const WalkTotals ref = expect_walks_agree(tree, theta, rcut, offsets, ghost_from,
                                                      32, what);

            // The traversal entry point runs the same walk over the same
            // groups: its counters are the reference totals.
            TraversalParams tp;
            tp.theta = theta;
            tp.rcut = rcut;
            tp.ncrit = 32;
            tp.eps2 = 1e-8;
            tp.kernel = KernelKind::kNewton;
            std::vector<Vec3> acc(ghost_from);
            const auto stats =
                tree_accelerations_targets(tree, tp, ghost_from, acc, offsets);
            EXPECT_EQ(stats.nodes_visited, ref.nodes_visited) << what;
            EXPECT_EQ(stats.ghost_sources, ref.ghost_sources) << what;
            EXPECT_EQ(stats.sum_nj, ref.entries) << what;
            EXPECT_GT(ref.ghost_sources, 0u) << what;
          }
    }
}

TEST(BlockWalk, DropsOnlyAcceptedNodesPastTheCutoff) {
  // Under a finite cutoff some accepted node has its com past rcut from
  // the group box and is dropped.  Its monopole carries no force there, so
  // the list with it gives the same accelerations under the scalar cutoff
  // kernel, up to summation order.
  const auto pos = random_positions(3000, 56);
  const std::vector<double> mass(pos.size(), 1.0 / 3000);
  const Octree tree(pos, mass);
  const double theta = 0.8, rcut = 0.1;
  const Vec3 home{0, 0, 0};
  WalkScratch scratch;
  std::size_t dropped = 0;
  for (const std::uint32_t g : tree.groups(16)) {
    const auto idx = group_targets(tree, g, pos.size());
    const GroupBox box = target_box(tree, idx);
    pp::InteractionList list, with_dropped;
    WalkSink sink{&list};
    walk_group(tree, box, theta, rcut, {&home, 1}, sink, scratch);
    // The same walk with the drop rule switched off.
    ReferenceWalker keeper{tree, box, theta, rcut, home, &with_dropped};
    keeper.keep_dropped = true;
    keeper.recursive(0);
    ASSERT_EQ(list.size() + keeper.dropped, with_dropped.size());
    dropped += keeper.dropped;
    if (keeper.dropped == 0) continue;
    std::vector<Vec3> targets;
    gather_targets(tree, idx, targets);
    std::vector<Vec3> a(targets.size()), b(targets.size());
    pp::pp_kernel_scalar(targets, a, list, rcut, 1e-8);
    pp::pp_kernel_scalar(targets, b, with_dropped, rcut, 1e-8);
    // Summation order differs (level order against depth-first, with the
    // dropped terms between), but each dropped term is exactly 0.
    for (std::size_t k = 0; k < targets.size(); ++k) {
      const double tol = 1e-12 * std::max(1.0, b[k].norm());
      EXPECT_NEAR(a[k].x, b[k].x, tol) << g;
      EXPECT_NEAR(a[k].y, b[k].y, tol) << g;
      EXPECT_NEAR(a[k].z, b[k].z, tol) << g;
    }
  }
  EXPECT_GT(dropped, 0u);
}

TEST(BlockWalk, DegenerateTreesMatchTheRecursiveWalk) {
  const Vec3 home{0, 0, 0};
  const std::vector<double> mass(5, 0.2);
  // No particles: the root is the only node, empty.
  const Octree empty(std::span<const Vec3>{}, std::span<const double>{});
  // One particle, and five under a leaf capacity of 8: the root is a leaf.
  const std::vector<Vec3> one{{0.3, 0.6, 0.2}};
  const Octree single(one, std::span<const double>(mass).first(1),
                      {8, 21, /*with_quadrupole=*/true});
  const auto five = random_positions(5, 53);
  const Octree root_leaf(five, mass, {8, 21, /*with_quadrupole=*/true});
  ASSERT_EQ(root_leaf.num_nodes(), 1u);

  for (const auto* tree : {&empty, &single, &root_leaf})
    for (const double theta : {0.3, 0.8})
      for (const double rcut : {0.15, std::numeric_limits<double>::infinity()})
        for (const bool periodic : {false, true}) {
          const std::span<const Vec3> offsets =
              periodic ? std::span<const Vec3>(all_images()) : std::span<const Vec3>(&home, 1);
          expect_walks_agree(*tree, theta, rcut, offsets, 3, 4,
                             "particles " + std::to_string(tree->num_particles()));
        }

  pp::InteractionList list;
  WalkSink sink{&list};
  WalkScratch scratch;
  build_interaction_list(empty, {}, TraversalParams{}, {&home, 1}, sink, scratch);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(sink.nodes_visited, 1u);
}

TEST(TargetGroups, PartitionTheTargetsAndStopAtNcrit) {
  // Groups are maximal cells with <= ncrit targets (or leaves with more):
  // each target sits in exactly one group, every group holds a target,
  // and a group's parent holds more than ncrit targets.
  const auto lg = corner_targets(4000, 0.55, 57);
  for (const std::uint32_t leaf_capacity : {1u, 8u, 64u}) {
    const Octree tree(lg.pos, lg.mass, {leaf_capacity, 21});
    const NodeArrays& a = tree.node_arrays();
    std::vector<std::uint32_t> parent(tree.num_nodes(), 0);
    for (std::uint32_t i = 0; i < tree.num_nodes(); ++i)
      for (std::uint32_t c = 0; c < a.nchildren[i]; ++c) parent[a.first_child[i] + c] = i;
    auto targets_in = [&](std::uint32_t ni) {
      return group_targets(tree, ni, lg.n_local).size();
    };
    for (const std::uint32_t ncrit : {1u, 16u, 100u}) {
      const auto groups = tree.groups(ncrit, lg.n_local);
      std::vector<int> seen(lg.n_local, 0);
      std::uint32_t prev_end = 0;
      for (const std::uint32_t g : groups) {
        const TreeNode node = tree.node(g);
        EXPECT_GE(node.first, prev_end) << "groups in tree order, disjoint";
        prev_end = node.first + node.count;
        const std::size_t t = targets_in(g);
        EXPECT_GE(t, 1u) << "a ghost-only cell formed group " << g;
        if (!node.is_leaf()) {
          EXPECT_LE(t, ncrit) << g;
        }
        if (g != 0) {
          EXPECT_GT(targets_in(parent[g]), ncrit) << "group " << g << " not maximal";
        }
        for (const std::uint32_t i : group_targets(tree, g, lg.n_local))
          ++seen[tree.original_index(i)];
      }
      for (std::size_t i = 0; i < lg.n_local; ++i) EXPECT_EQ(seen[i], 1) << i;
    }
    EXPECT_TRUE(tree.groups(16, 0).empty()) << "no targets, no groups";
    // Without a target bound every particle is a target.
    EXPECT_EQ(tree.groups(16), tree.groups(16, lg.pos.size()));
  }
}

TEST(TargetGroups, BoxHoldsEveryTarget) {
  const auto lg = corner_targets(3000, 0.6, 58);
  const Octree tree(lg.pos, lg.mass);
  for (const std::uint32_t g : tree.groups(32, lg.n_local)) {
    const auto idx = group_targets(tree, g, lg.n_local);
    const GroupBox box = target_box(tree, idx);
    const TreeNode cell = tree.node(g);
    for (std::size_t axis = 0; axis < 3; ++axis) {
      EXPECT_GE(box.half[axis], 0.0);
      EXPECT_LE(box.half[axis], cell.half) << "tight box larger than its cell";
      for (const std::uint32_t i : idx)
        EXPECT_LE(std::abs(tree.sorted_pos()[i][axis] - box.center[axis]), box.half[axis])
            << "group " << g << " target " << i << " axis " << axis;
    }
  }
}

TEST(TargetGroups, OneTargetGroupWalksCorrectly) {
  // One target among ghosts: its group is the root, with a zero-extent
  // box.  The walk agrees with the references, and the force matches
  // direct summation within the opening-angle budget.
  auto pos = random_positions(2000, 59);
  pos[0] = {0.37, 0.52, 0.61};
  const std::vector<double> mass(pos.size(), 1.0 / 2000);
  const Octree tree(pos, mass, {8, 21, /*with_quadrupole=*/true});
  const auto groups = tree.groups(16, 1);
  ASSERT_EQ(groups, std::vector<std::uint32_t>{0});
  const GroupBox box = target_box(tree, group_targets(tree, 0, 1));
  EXPECT_EQ(box.half.x, 0.0);
  EXPECT_EQ(box.half.y, 0.0);
  EXPECT_EQ(box.half.z, 0.0);
  EXPECT_EQ(box.center.x, pos[0].x);

  const Vec3 home{0, 0, 0};
  for (const double rcut : {0.2, std::numeric_limits<double>::infinity()})
    expect_walks_agree(tree, 0.5, rcut, {&home, 1}, 1, 16, "one target");

  TraversalParams tp;
  tp.theta = 0.3;
  tp.eps2 = 1e-8;
  tp.kernel = KernelKind::kNewton;
  std::vector<Vec3> acc(1);
  const auto stats = tree_accelerations_targets(tree, tp, 1, acc);
  EXPECT_EQ(stats.ngroups, 1u);
  EXPECT_EQ(stats.sum_ni, 1u);
  Vec3 direct{};
  for (std::size_t j = 1; j < pos.size(); ++j) {
    const Vec3 d = pos[j] - pos[0];
    const double r2 = d.norm2() + tp.eps2;
    direct += d * (mass[j] / (r2 * std::sqrt(r2)));
  }
  EXPECT_LT((acc[0] - direct).norm(), 1e-2 * direct.norm());
}

TEST(BlockWalk, QuadrupolesAreStoredOnlyWhenRequested) {
  const auto pos = random_positions(200, 54);
  const std::vector<double> mass(pos.size(), 1.0);
  const Octree without(pos, mass);
  EXPECT_TRUE(without.quads().empty());
  const Octree with(pos, mass, {8, 21, /*with_quadrupole=*/true});
  EXPECT_EQ(with.quads().size(), with.num_nodes());

  // A quadrupole walk needs the side array: refused, not read past its end.
  TraversalParams tp;
  tp.kernel = KernelKind::kNewtonQuad;
  std::vector<Vec3> acc(pos.size());
  EXPECT_THROW(tree_accelerations(without, tp, acc), std::invalid_argument);
  EXPECT_NO_THROW(tree_accelerations(with, tp, acc));
}

TEST(BlockWalk, ClassifiersAgreeOnRandomChildBlocks) {
  // Coordinates on a 1/16 grid make the predicates' ties (touching boxes,
  // a com on the group surface, size^2 == theta^2 dcom2) common.
  if (!walk_classifier_available(WalkClassifier::kAvx512))
    GTEST_SKIP() << "only the portable classifier runs on this CPU";
  Rng rng(55);
  auto grid = [&](double lo, double hi) {
    return std::round(rng.uniform(lo, hi) * 16.0) / 16.0;
  };
  NodeArrays a;
  const std::size_t nodes = 4096;
  for (std::size_t i = 0; i < nodes; ++i) {
    a.cx.push_back(grid(0, 1));
    a.cy.push_back(grid(0, 1));
    a.cz.push_back(grid(0, 1));
    a.half.push_back(std::ldexp(1.0, -static_cast<int>(rng.uniform(1, 6))));
    a.comx.push_back(a.cx.back() + grid(-a.half.back(), a.half.back()));
    a.comy.push_back(a.cy.back() + grid(-a.half.back(), a.half.back()));
    a.comz.push_back(a.cz.back() + grid(-a.half.back(), a.half.back()));
    a.mass.push_back(rng.uniform(0, 1));
    a.nchildren.push_back(rng.uniform() < 0.5 ? 0u : 1u + static_cast<std::uint32_t>(i % 8));
    a.first_child.push_back(0);
    a.first.push_back(0);
    a.count.push_back(1);
  }
  std::uint64_t seen_accept = 0, seen_leaf = 0, seen_open = 0, seen_pruned = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + trial % 8);
    const auto first = static_cast<std::uint32_t>(rng.uniform(0, nodes - 8));
    WalkBox box;
    box.center = {grid(0, 1), grid(0, 1), grid(0, 1)};
    // Per-axis halves of a tight group box, some of zero extent.
    auto side = [&] {
      return rng.uniform() < 0.15 ? 0.0 : std::ldexp(1.0, -static_cast<int>(rng.uniform(2, 6)));
    };
    box.half = {side(), side(), side()};
    box.offset = {std::round(rng.uniform(-1.4, 1.4)), std::round(rng.uniform(-1.4, 1.4)),
                  std::round(rng.uniform(-1.4, 1.4))};
    box.rcut2 = trial % 3 == 0 ? std::numeric_limits<double>::infinity()
                               : std::pow(grid(0.0625, 0.5), 2);
    box.theta2 = std::pow(std::array{0.3, 0.5, 0.8, 1.0}[static_cast<std::size_t>(trial % 4)], 2);
    const ChildMasks p = classify_children(WalkClassifier::kPortable, a, first, n, box);
    const ChildMasks v = classify_children(WalkClassifier::kAvx512, a, first, n, box);
    ASSERT_EQ(p.accept, v.accept) << "trial " << trial;
    ASSERT_EQ(p.leaf, v.leaf) << "trial " << trial;
    ASSERT_EQ(p.open, v.open) << "trial " << trial;
    ASSERT_EQ((p.accept | p.leaf | p.open) >> n, 0u);
    ASSERT_EQ(p.accept & p.leaf, 0u);
    ASSERT_EQ((p.accept | p.leaf) & p.open, 0u);
    seen_accept += static_cast<std::uint64_t>(std::popcount(p.accept));
    seen_leaf += static_cast<std::uint64_t>(std::popcount(p.leaf));
    seen_open += static_cast<std::uint64_t>(std::popcount(p.open));
    seen_pruned += n - static_cast<std::uint64_t>(std::popcount(p.accept | p.leaf | p.open));
  }
  // Every class occurs, so no lane logic went untested.
  EXPECT_GT(seen_accept, 0u);
  EXPECT_GT(seen_leaf, 0u);
  EXPECT_GT(seen_open, 0u);
  EXPECT_GT(seen_pruned, 0u);
}

}  // namespace
}  // namespace greem::tree
