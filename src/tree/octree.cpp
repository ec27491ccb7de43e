#include "tree/octree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <memory>
#include <span>
#include <utility>

#include "util/morton.hpp"

namespace greem::tree {

namespace {

/// Stable insertion sort of (key, index) pairs by key.
void insertion_sort(std::uint64_t* key, std::uint32_t* index, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t k = key[i];
    const std::uint32_t x = index[i];
    std::size_t j = i;
    for (; j > 0 && key[j - 1] > k; --j) {
      key[j] = key[j - 1];
      index[j] = index[j - 1];
    }
    key[j] = k;
    index[j] = x;
  }
}

/// Stable MSD radix sort of (key, index) pairs by key, keys and indices in
/// separate arrays; `tkey`/`tindex` are scratch of the same length.  A range
/// skips the leading bits all its keys share, then scatters on the next
/// digit -- up to 11 bits, narrower for short ranges so the histogram stays
/// below the range's length -- and recurses into each bucket.  Runs of at
/// most 32 pairs finish by insertion sort.  Every step keeps tied keys in
/// their order, so equal keys leave in the order they came in.
void radix_sort(std::uint64_t* key, std::uint32_t* index, std::uint64_t* tkey,
                std::uint32_t* tindex, std::size_t n) {
  constexpr std::size_t kInsertionMax = 32;
  constexpr int kMaxDigitBits = 11;
  if (n <= kInsertionMax) {
    insertion_sort(key, index, n);
    return;
  }
  std::uint64_t differ = 0;
  for (std::size_t i = 0; i < n; ++i) differ |= key[i] ^ key[0];
  if (differ == 0) return;  // all keys equal: already in order
  const int top = std::bit_width(differ);  // bits [0, top) still vary
  const int bits = std::min({kMaxDigitBits, top, static_cast<int>(std::bit_width(n)) - 3});
  const int shift = top - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  const std::uint64_t mask = buckets - 1;
  std::array<std::uint32_t, std::size_t{1} << kMaxDigitBits> end;
  std::fill_n(end.begin(), buckets, 0);
  for (std::size_t i = 0; i < n; ++i) ++end[(key[i] >> shift) & mask];
  std::uint32_t sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) sum += std::exchange(end[b], sum);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t at = end[(key[i] >> shift) & mask]++;
    tkey[at] = key[i];
    tindex[at] = index[i];
  }
  std::copy_n(tkey, n, key);
  std::copy_n(tindex, n, index);
  // end[b] is now the end of bucket b.
  for (std::size_t b = 0, begin = 0; b < buckets; begin = end[b++])
    if (end[b] - begin > 1)
      radix_sort(key + begin, index + begin, tkey + begin, tindex + begin, end[b] - begin);
}

/// Sorts the (key, index) pairs, fills the node arrays and sums the
/// monopoles in one recursion.
///
/// A cell that splits is partitioned, stably, on its next few octal key
/// digits at once (up to kMaxBlockLevels tree levels, fewer for small
/// cells).  The bucket bounds of that partition are the particle ranges of
/// every cell in those levels, so the levels' nodes are read off the bounds
/// without touching a key; a cell at the bottom of the block that still
/// splits starts a new block.  A leaf sorts its few pairs by the full key,
/// appends its particles in tree order and sums them; a parent sums its
/// children once they are done.  Pairs enter in index order and every step
/// is stable, so equal keys leave in index order: the order is the stable
/// sort's by key.
///
/// Nodes are numbered as the recursive build numbers them: a split appends
/// the cell's non-empty octants as one sibling run, then splits the
/// children in order.  A child's center is its parent's plus a quarter side
/// per axis, toward its octant.
class TreeBuilder {
 public:
  TreeBuilder(std::uint64_t* key, std::vector<std::uint32_t>& index,
              std::uint32_t leaf_capacity, int max_depth, std::span<const Vec3> pos,
              std::span<const double> mass, std::vector<Vec3>& sorted_pos,
              std::vector<double>& sorted_mass, NodeArrays& nodes)
      : n_(static_cast<std::uint32_t>(index.size())),
        key_(key),
        index_(index.data()),
        tkey_(std::make_unique_for_overwrite<std::uint64_t[]>(n_)),
        tindex_(std::make_unique_for_overwrite<std::uint32_t[]>(n_)),
        leaf_capacity_(leaf_capacity),
        max_depth_(max_depth),
        pos_(pos),
        mass_(mass),
        sorted_pos_(sorted_pos),
        sorted_mass_(sorted_mass),
        a_(nodes) {}

  /// Build the tree over the cube centered at `center`.
  void run(const Vec3& center, double half) {
    // Room for the ~0.42 n nodes of a clustered set at leaf_capacity 8;
    // split() doubles it when a tree needs more.
    a_.resize(n_ / 2 + 16);
    a_.cx[0] = center.x;
    a_.cy[0] = center.y;
    a_.cz[0] = center.z;
    a_.half[0] = half;
    a_.first[0] = 0;
    a_.count[0] = n_;
    size_ = 1;
    build(0, 0);
    a_.resize(size_);
  }

 private:
  static constexpr int kMaxBlockLevels = 4;

  /// Split `node`, a cell at `level` whose pairs share the key digits
  /// above it, or finish it as a leaf.
  void build(std::uint32_t node, int level) {
    const std::uint32_t first = a_.first[node], count = a_.count[node];
    if (count <= leaf_capacity_ || level >= max_depth_) {
      finish_leaf(node);
      return;
    }
    // Levels per block: about count / 2 buckets, so most hold a few pairs.
    const int levels =
        std::min({kMaxBlockLevels, max_depth_ - level,
                  std::max(1, (static_cast<int>(std::bit_width(count / 2)) - 1) / 3)});
    const int shift = 3 * (kMortonBits - level - levels);
    const std::size_t buckets = std::size_t{1} << (3 * levels);
    const std::uint64_t mask = buckets - 1;
    const std::uint64_t* k = key_ + first;
    const std::uint32_t* x = index_ + first;

    // bounds[b] .. bounds[b + 1] is bucket b, relative to `first`: counts
    // go to b + 1, become exclusive starts, and advance to the ends while
    // the pairs scatter.  Blocks nest, so the bounds live on a stack.
    const std::size_t at = bounds_.size();
    bounds_.resize(at + buckets + 1, 0);
    std::uint32_t* bounds = bounds_.data() + at;
    for (std::uint32_t i = 0; i < count; ++i) ++bounds[((k[i] >> shift) & mask) + 1];
    const std::uint64_t first_digit = (k[0] >> shift) & mask;
    if (bounds[first_digit + 1] == count) {
      // One bucket: the pairs are already in place.
      for (std::size_t b = first_digit + 1; b <= buckets; ++b) bounds[b] = count;
    } else {
      std::uint32_t sum = 0;
      for (std::size_t b = 1; b <= buckets; ++b) sum += std::exchange(bounds[b], sum);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t to = bounds[((k[i] >> shift) & mask) + 1]++;
        tkey_[to] = k[i];
        tindex_[to] = x[i];
      }
      std::copy_n(tkey_.get(), count, key_ + first);
      std::copy_n(tindex_.get(), count, index_ + first);
    }
    split(node, level, at, 0, buckets, level + levels);
    bounds_.resize(at);
  }

  /// Append the children of `node`, a cell at `level` covering buckets
  /// [lo, hi) of the block whose bounds start at bounds_[at]; finish each
  /// child (inside the block from the bounds, at its bottom by build), then
  /// sum the children's moments.
  void split(std::uint32_t node, int level, std::size_t at, std::size_t lo, std::size_t hi,
             int bottom) {
    if (a_.size() < size_ + 8) a_.resize(2 * a_.size());
    const std::size_t step = (hi - lo) / 8;
    const double cx = a_.cx[node], cy = a_.cy[node], cz = a_.cz[node];
    const double q = a_.half[node] / 2;
    const std::uint32_t block_first = a_.first[node] - bounds_[at + lo];
    const auto first_child = static_cast<std::uint32_t>(size_);
    // Every octant is written, and only the non-empty ones are kept: no
    // branch on which octants a cell fills.
    std::array<std::uint8_t, 8> octant;
    std::uint32_t nchildren = 0;
    for (unsigned o = 0; o < 8; ++o) {
      const std::uint32_t begin = bounds_[at + lo + o * step];
      const std::uint32_t end = bounds_[at + lo + (o + 1) * step];
      const std::uint32_t c = first_child + nchildren;
      a_.cx[c] = cx + ((o & 1) ? q : -q);
      a_.cy[c] = cy + ((o & 2) ? q : -q);
      a_.cz[c] = cz + ((o & 4) ? q : -q);
      a_.half[c] = q;
      a_.first[c] = block_first + begin;
      a_.count[c] = end - begin;
      octant[nchildren] = static_cast<std::uint8_t>(o);
      nchildren += begin != end;
    }
    size_ += nchildren;
    a_.first_child[node] = first_child;
    a_.nchildren[node] = nchildren;
    for (std::uint32_t c = 0; c < nchildren; ++c) {
      const std::uint32_t child = first_child + c;
      a_.first_child[child] = 0;
      a_.nchildren[child] = 0;
      if (a_.count[child] <= leaf_capacity_) {
        finish_leaf(child);
      } else if (level + 1 < bottom) {
        const std::size_t child_lo = lo + octant[c] * step;
        split(child, level + 1, at, child_lo, child_lo + step, bottom);
      } else {
        build(child, level + 1);
      }
    }
    Vec3 com{};
    double msum = 0;
    for (std::uint32_t c = first_child; c < first_child + nchildren; ++c) {
      com += Vec3{a_.comx[c], a_.comy[c], a_.comz[c]} * a_.mass[c];
      msum += a_.mass[c];
    }
    set_moments(node, com, msum);
  }

  /// Sort a leaf's pairs by the full key, append its particles in tree
  /// order (leaves finish in particle order) and sum them in that order.
  void finish_leaf(std::uint32_t node) {
    const std::uint32_t first = a_.first[node], count = a_.count[node];
    if (count > 1)
      radix_sort(key_ + first, index_ + first, tkey_.get(), tindex_.get(), count);
    Vec3 com{};
    double msum = 0;
    for (std::uint32_t k = first; k < first + count; ++k) {
      const std::uint32_t j = index_[k];
      sorted_pos_.push_back(pos_[j]);
      sorted_mass_.push_back(mass_[j]);
      com += pos_[j] * mass_[j];
      msum += mass_[j];
    }
    set_moments(node, com, msum);
  }

  /// Center of mass = mass-weighted sum / mass; an empty cell's is its
  /// center.
  void set_moments(std::uint32_t node, Vec3 com, double msum) {
    if (msum > 0) com /= msum;
    else com = {a_.cx[node], a_.cy[node], a_.cz[node]};
    a_.comx[node] = com.x;
    a_.comy[node] = com.y;
    a_.comz[node] = com.z;
    a_.mass[node] = msum;
  }

  std::uint32_t n_;
  std::uint64_t* key_;
  std::uint32_t* index_;
  std::unique_ptr<std::uint64_t[]> tkey_;  ///< partition scratch, uninitialized
  std::unique_ptr<std::uint32_t[]> tindex_;
  std::vector<std::uint32_t> bounds_;
  std::uint32_t leaf_capacity_;
  int max_depth_;
  std::span<const Vec3> pos_;
  std::span<const double> mass_;
  std::vector<Vec3>& sorted_pos_;
  std::vector<double>& sorted_mass_;
  NodeArrays& a_;
  std::size_t size_ = 0;  ///< nodes so far; a_ has room to spare
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
  // Lane-wise over runs of kLanes particles, so the loop vectorizes, then
  // across the lanes (min and max do not depend on the order).
  Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  if (n > 0) {
    constexpr std::size_t kLanes = 8;
    std::array<Vec3, kLanes> lanes_lo, lanes_hi;
    lanes_lo.fill(pos[0]);
    lanes_hi.fill(pos[0]);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
      for (std::size_t k = 0; k < kLanes; ++k)
        for (std::size_t a = 0; a < 3; ++a) {
          lanes_lo[k][a] = std::min(lanes_lo[k][a], pos[i + k][a]);
          lanes_hi[k][a] = std::max(lanes_hi[k][a], pos[i + k][a]);
        }
    for (; i < n; ++i)
      for (std::size_t a = 0; a < 3; ++a) {
        lanes_lo[0][a] = std::min(lanes_lo[0][a], pos[i][a]);
        lanes_hi[0][a] = std::max(lanes_hi[0][a], pos[i][a]);
      }
    lo = hi = pos[0];
    for (std::size_t k = 0; k < kLanes; ++k)
      for (std::size_t a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], lanes_lo[k][a]);
        hi[a] = std::max(hi[a], lanes_hi[k][a]);
      }
  }
  double size = std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-12});
  size *= 1.0 + 1e-9;  // keep the max corner strictly inside
  box_origin_ = lo;
  box_size_ = size;

  // Keys in input order (a branch-free loop the compiler vectorizes).
  const auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  order_.resize(n);
  {
    constexpr double kScale = static_cast<double>(1ULL << kMortonBits);
    auto cell = [](double v) {
      const auto c = std::clamp<std::int64_t>(static_cast<std::int64_t>(v * kScale), 0,
                                              (1LL << kMortonBits) - 1);
      return static_cast<std::uint64_t>(c);
    };
    const double ox = lo.x, oy = lo.y, oz = lo.z;
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = morton_encode(cell((pos[i].x - ox) / size), cell((pos[i].y - oy) / size),
                              cell((pos[i].z - oz) / size));
      order_[i] = static_cast<std::uint32_t>(i);
    }
  }

  // Sort, nodes and monopoles.  A cell splits while it holds more than
  // leaf_capacity particles, down to the key resolution (deeper levels have
  // no key bits left to split on).
  sorted_pos_.reserve(n);
  sorted_mass_.reserve(n);
  const int max_depth = std::min(params.max_depth, kMortonBits);
  TreeBuilder(keys.get(), order_, params.leaf_capacity, max_depth, pos, mass, sorted_pos_,
              sorted_mass_, nodes_)
      .run(lo + Vec3(size / 2, size / 2, size / 2), size / 2);
  if (!params.with_quadrupole) return;

  // Quadrupoles bottom-up (children have higher indices).  Leaves sum
  // their particles' moments about the com; a parent combines its children
  // by the parallel-axis shift s = com_c - com.
  const NodeArrays& a = nodes_;
  const std::size_t m = a.size();
  quads_.assign(m, Quadrupole{});
  for (std::size_t i = m; i-- > 0;) {
    const Vec3 com{a.comx[i], a.comy[i], a.comz[i]};
    Quadrupole& qd = quads_[i];
    if (a.nchildren[i] == 0) {
      for (std::uint32_t k = a.first[i]; k < a.first[i] + a.count[i]; ++k)
        add_point_quadrupole(qd, sorted_pos_[k] - com, sorted_mass_[k]);
    } else {
      for (std::uint32_t c = a.first_child[i]; c < a.first_child[i] + a.nchildren[i]; ++c) {
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
