#include "tree/octree.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/morton.hpp"

namespace greem::tree {

namespace {

/// A particle's Morton key and its caller index: the radix sort's element.
struct KeyIndex {
  std::uint64_t key;
  std::uint32_t index;
};

/// Stable LSD radix sort of (key, index) pairs by key, 11 bits per pass
/// (six passes cover the 63 key bits).  Stability is the tie rule: pairs
/// enter in index order, so equal keys leave in index order.  A pass whose
/// digit is the same for every key moves nothing and is skipped.
void radix_sort(std::vector<KeyIndex>& a) {
  constexpr int kBits = 11;
  constexpr int kPasses = (3 * kMortonBits + kBits - 1) / kBits;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  const std::size_t n = a.size();
  std::vector<std::uint32_t> hist(kPasses * kBuckets, 0);
  auto digit = [](std::uint64_t key, int p) { return (key >> (p * kBits)) & (kBuckets - 1); };
  for (const KeyIndex& e : a)
    for (int p = 0; p < kPasses; ++p) ++hist[p * kBuckets + digit(e.key, p)];

  std::vector<KeyIndex> tmp(n);
  for (int p = 0; p < kPasses; ++p) {
    std::uint32_t* h = hist.data() + p * kBuckets;
    if (n == 0 || h[digit(a[0].key, p)] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) sum += std::exchange(h[b], sum);
    for (const KeyIndex& e : a) tmp[h[digit(e.key, p)]++] = e;
    a.swap(tmp);
  }
}

/// Shape of one node, found before the node arrays are sized.
struct Shape {
  std::uint32_t first, count;  ///< particle range
  std::uint32_t first_child;   ///< 0 for a leaf
  std::uint8_t nchildren;
  std::uint8_t octant;  ///< this node's octant within its parent
};

void add_point_quadrupole(Quadrupole& q, const Vec3& d, double m) {
  const double d2 = d.norm2();
  q[0] += m * (3.0 * d.x * d.x - d2);
  q[1] += m * 3.0 * d.x * d.y;
  q[2] += m * 3.0 * d.x * d.z;
  q[3] += m * (3.0 * d.y * d.y - d2);
  q[4] += m * 3.0 * d.y * d.z;
  q[5] += m * (3.0 * d.z * d.z - d2);
}

}  // namespace

Octree::Octree(std::span<const Vec3> pos, std::span<const double> mass, OctreeParams params) {
  const std::size_t n = pos.size();
  assert(mass.size() == n);

  // Bounding cube of the input (local trees include ghosts that may lie
  // outside the unit box, so the cube is computed, not assumed).
  Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  if (n > 0) {
    lo = hi = pos[0];
    for (const auto& p : pos) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    }
  }
  double size = std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-12});
  size *= 1.0 + 1e-9;  // keep the max corner strictly inside
  box_origin_ = lo;
  box_size_ = size;

  // Keys, sorted with their indices.
  std::vector<KeyIndex> sorted(n);
  {
    constexpr double kScale = static_cast<double>(1ULL << kMortonBits);
    auto cell = [](double v) {
      const auto c = std::clamp<std::int64_t>(static_cast<std::int64_t>(v * kScale), 0,
                                              (1LL << kMortonBits) - 1);
      return static_cast<std::uint64_t>(c);
    };
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3 q = (pos[i] - box_origin_) / box_size_;
      sorted[i] = {morton_encode(cell(q.x), cell(q.y), cell(q.z)), static_cast<std::uint32_t>(i)};
    }
  }
  radix_sort(sorted);

  order_.resize(n);
  sorted_pos_.resize(n);
  sorted_mass_.resize(n);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t j = sorted[i].index;
    order_[i] = j;
    sorted_pos_[i] = pos[j];
    sorted_mass_[i] = mass[j];
    keys[i] = sorted[i].key;
  }
  std::vector<KeyIndex>().swap(sorted);

  // Shape pass: split the key-sorted range recursively.  Every split
  // appends the node's non-empty octants as a contiguous sibling run, so
  // node i's children come after node i and the numbering is the recursive
  // build's.  A cell splits while it holds more than leaf_capacity
  // particles, down to the key resolution (deeper levels have no key bits
  // left to split on).
  const int max_depth = std::min(params.max_depth, kMortonBits);
  std::vector<Shape> shape;
  shape.reserve(n / std::max<std::size_t>(params.leaf_capacity, 1) * 3 + 16);
  shape.push_back({0, static_cast<std::uint32_t>(n), 0, 0, 0});
  auto split = [&](auto& self, std::uint32_t node, int level) -> void {
    const std::uint32_t lo_i = shape[node].first;
    const std::uint32_t hi_i = lo_i + shape[node].count;
    if (hi_i - lo_i <= params.leaf_capacity || level >= max_depth) return;
    // The range shares every key bit above this level's octant digit, so
    // the run of octant o ends at the first key >= prefix | (o + 1) << shift.
    // Only non-empty octants are visited, and the last one needs no search.
    const int shift = 3 * (kMortonBits - 1 - level);
    const std::uint64_t prefix = keys[lo_i] >> shift >> 3 << 3;
    auto octant = [&](std::uint32_t i) { return static_cast<unsigned>((keys[i] >> shift) & 7u); };
    const unsigned last = octant(hi_i - 1);
    const auto first_child = static_cast<std::uint32_t>(shape.size());
    for (std::uint32_t begin = lo_i, end; begin < hi_i; begin = end) {
      const unsigned o = octant(begin);
      end = o == last ? hi_i
                      : static_cast<std::uint32_t>(
                            std::lower_bound(keys.begin() + begin + 1, keys.begin() + hi_i,
                                             (prefix | (o + 1)) << shift) -
                            keys.begin());
      shape.push_back({begin, end - begin, 0, 0, static_cast<std::uint8_t>(o)});
    }
    shape[node].first_child = first_child;
    shape[node].nchildren = static_cast<std::uint8_t>(shape.size() - first_child);
    for (std::uint32_t c = first_child; c < first_child + shape[node].nchildren; ++c)
      self(self, c, level + 1);
  };
  split(split, 0, 0);

  // Fill the node arrays, sized once: geometry top-down (a child's center
  // is its parent's plus a quarter side per axis), then moments bottom-up
  // (children have higher indices), each node summing its particles or
  // its children in order.
  const std::size_t m = shape.size();
  NodeArrays& a = nodes_;
  a.resize(m);
  a.cx[0] = box_origin_.x + size / 2;
  a.cy[0] = box_origin_.y + size / 2;
  a.cz[0] = box_origin_.z + size / 2;
  a.half[0] = size / 2;
  for (std::size_t i = 0; i < m; ++i) {
    const Shape& s = shape[i];
    a.first[i] = s.first;
    a.count[i] = s.count;
    a.first_child[i] = s.first_child;
    a.nchildren[i] = s.nchildren;
    const double q = a.half[i] / 2;
    for (std::uint32_t c = s.first_child; c < s.first_child + s.nchildren; ++c) {
      const unsigned o = shape[c].octant;
      a.cx[c] = a.cx[i] + ((o & 1) ? q : -q);
      a.cy[c] = a.cy[i] + ((o & 2) ? q : -q);
      a.cz[c] = a.cz[i] + ((o & 4) ? q : -q);
      a.half[c] = q;
    }
  }

  if (params.with_quadrupole) quads_.assign(m, Quadrupole{});
  for (std::size_t i = m; i-- > 0;) {
    const Shape& s = shape[i];
    const std::uint32_t kids_end = s.first_child + s.nchildren;
    Vec3 com{};
    double msum = 0;
    if (s.nchildren == 0) {
      for (std::uint32_t k = s.first; k < s.first + s.count; ++k) {
        com += sorted_pos_[k] * sorted_mass_[k];
        msum += sorted_mass_[k];
      }
    } else {
      for (std::uint32_t c = s.first_child; c < kids_end; ++c) {
        com += Vec3{a.comx[c], a.comy[c], a.comz[c]} * a.mass[c];
        msum += a.mass[c];
      }
    }
    if (msum > 0) com /= msum;
    else com = {a.cx[i], a.cy[i], a.cz[i]};
    a.comx[i] = com.x;
    a.comy[i] = com.y;
    a.comz[i] = com.z;
    a.mass[i] = msum;
    if (!params.with_quadrupole) continue;
    // Leaves sum their particles' moments about the com; a parent combines
    // its children by the parallel-axis shift s = com_c - com.
    Quadrupole& qd = quads_[i];
    if (s.nchildren == 0) {
      for (std::uint32_t k = s.first; k < s.first + s.count; ++k)
        add_point_quadrupole(qd, sorted_pos_[k] - com, sorted_mass_[k]);
    } else {
      for (std::uint32_t c = s.first_child; c < kids_end; ++c) {
        for (std::size_t k = 0; k < 6; ++k) qd[k] += quads_[c][k];
        add_point_quadrupole(qd, Vec3{a.comx[c], a.comy[c], a.comz[c]} - com, a.mass[c]);
      }
    }
  }
}

void NodeArrays::resize(std::size_t n) {
  for (auto* v : {&cx, &cy, &cz, &half, &comx, &comy, &comz, &mass}) v->resize(n);
  for (auto* v : {&first_child, &nchildren, &first, &count}) v->resize(n);
}

TreeNode Octree::node(std::uint32_t i) const {
  const NodeArrays& a = nodes_;
  return {{a.cx[i], a.cy[i], a.cz[i]},
          a.half[i],
          {a.comx[i], a.comy[i], a.comz[i]},
          a.mass[i],
          a.first_child[i],
          a.nchildren[i],
          a.first[i],
          a.count[i]};
}

std::vector<std::uint32_t> Octree::groups(std::uint32_t ncrit, std::size_t n_targets) const {
  const NodeArrays& a = nodes_;
  // targets_before[k]: targets among the first k tree-order particles, so
  // a cell's target count is one difference over its particle range.
  std::vector<std::uint32_t> targets_before(order_.size() + 1, 0);
  for (std::size_t k = 0; k < order_.size(); ++k)
    targets_before[k + 1] = targets_before[k] + (order_[k] < n_targets);
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const std::uint32_t targets =
        targets_before[a.first[ni] + a.count[ni]] - targets_before[a.first[ni]];
    if (targets == 0) continue;
    if (targets <= ncrit || a.nchildren[ni] == 0) {
      out.push_back(ni);
      continue;
    }
    // Children pushed last-first pop in index order: the groups come out
    // in tree order and sweep the particle array contiguously.
    for (std::uint32_t c = a.nchildren[ni]; c-- > 0;) stack.push_back(a.first_child[ni] + c);
  }
  return out;
}

}  // namespace greem::tree
