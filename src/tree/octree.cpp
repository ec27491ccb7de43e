#include "tree/octree.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/morton.hpp"

namespace greem::tree {

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

  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 q = (pos[i] - box_origin_) / box_size_;
    const double scale = static_cast<double>(1ULL << kMortonBits);
    auto cell = [&](double v) {
      auto c = static_cast<std::int64_t>(v * scale);
      c = std::clamp<std::int64_t>(c, 0, (1LL << kMortonBits) - 1);
      return static_cast<std::uint64_t>(c);
    };
    keys[i] = morton_encode(cell(q.x), cell(q.y), cell(q.z));
  }

  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });

  sorted_pos_.resize(n);
  sorted_mass_.resize(n);
  std::vector<std::uint64_t> sorted_keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_pos_[i] = pos[order_[i]];
    sorted_mass_[i] = mass[order_[i]];
    sorted_keys[i] = keys[order_[i]];
  }

  const std::size_t expect = n / std::max<std::size_t>(params.leaf_capacity, 1) * 3 + 16;
  nodes_.reserve(expect);
  if (params.with_quadrupole) quads_.reserve(expect);
  const Vec3 root_center = box_origin_ + Vec3(size / 2, size / 2, size / 2);
  struct Ctx {
    Octree* self;
    const OctreeParams& params;
    int max_depth;
    std::span<const std::uint64_t> keys;

    /// Append `k` zeroed nodes; returns the index of the first.
    std::uint32_t append(unsigned k) {
      const auto at = static_cast<std::uint32_t>(self->nodes_.size());
      self->nodes_.resize(at + std::size_t{k});
      if (params.with_quadrupole) self->quads_.resize(at + std::size_t{k});
      return at;
    }

    Vec3 com_of(std::uint32_t node) const {
      const NodeArrays& a = self->nodes_;
      return {a.comx[node], a.comy[node], a.comz[node]};
    }

    void set_moments(std::uint32_t node, const Vec3& com, double m) {
      NodeArrays& a = self->nodes_;
      a.comx[node] = com.x;
      a.comy[node] = com.y;
      a.comz[node] = com.z;
      a.mass[node] = m;
    }

    void build(std::uint32_t node, std::uint32_t lo_i, std::uint32_t hi_i, int level,
               Vec3 center, double half) {
      auto& t = *self;
      NodeArrays& a = t.nodes_;
      a.cx[node] = center.x;
      a.cy[node] = center.y;
      a.cz[node] = center.z;
      a.half[node] = half;
      a.first[node] = lo_i;
      a.count[node] = hi_i - lo_i;

      const std::uint32_t count = hi_i - lo_i;
      if (count <= params.leaf_capacity || level >= max_depth) {
        Vec3 com{};
        double m = 0;
        for (std::uint32_t i = lo_i; i < hi_i; ++i) {
          com += t.sorted_pos_[i] * t.sorted_mass_[i];
          m += t.sorted_mass_[i];
        }
        set_moments(node, m > 0 ? com / m : center, m);
        if (params.with_quadrupole) {
          auto& q = t.quads_[node];
          for (std::uint32_t i = lo_i; i < hi_i; ++i)
            add_point_quadrupole(q, t.sorted_pos_[i] - com_of(node), t.sorted_mass_[i]);
        }
        return;
      }

      const int shift = 3 * (kMortonBits - 1 - level);
      auto octant = [&](std::uint32_t i) {
        return static_cast<unsigned>((keys[i] >> shift) & 7u);
      };
      // Partition the sorted range into the 8 octant subranges.
      std::uint32_t bounds[9];
      bounds[0] = lo_i;
      std::uint32_t cur = lo_i;
      for (unsigned o = 0; o < 8; ++o) {
        while (cur < hi_i && octant(cur) == o) ++cur;
        bounds[o + 1] = cur;
      }

      struct Child {
        unsigned o;
        std::uint32_t lo, hi;
      };
      Child children[8];
      unsigned nchild = 0;
      for (unsigned o = 0; o < 8; ++o)
        if (bounds[o + 1] != bounds[o]) children[nchild++] = {o, bounds[o], bounds[o + 1]};
      const std::uint32_t first_child = append(nchild);
      a.first_child[node] = first_child;
      a.nchildren[node] = nchild;

      Vec3 com{};
      double m = 0;
      for (unsigned c = 0; c < nchild; ++c) {
        const auto [o, clo, chi] = children[c];
        const std::uint32_t cnode = first_child + c;
        const double q = half / 2;
        const Vec3 ccenter = center + Vec3{(o & 1) ? q : -q, (o & 2) ? q : -q, (o & 4) ? q : -q};
        build(cnode, clo, chi, level + 1, ccenter, q);
        com += com_of(cnode) * a.mass[cnode];
        m += a.mass[cnode];
      }
      set_moments(node, m > 0 ? com / m : center, m);
      if (params.with_quadrupole) {
        // Parallel-axis combination: a child's moment about the parent com
        // is its own moment plus its mass shifted by s = com_c - com.
        auto& q = t.quads_[node];
        for (std::uint32_t cnode = first_child; cnode < first_child + nchild; ++cnode) {
          for (std::size_t k = 0; k < 6; ++k) q[k] += t.quads_[cnode][k];
          add_point_quadrupole(q, com_of(cnode) - com_of(node), a.mass[cnode]);
        }
      }
    }

    static void add_point_quadrupole(Quadrupole& q, const Vec3& d, double m) {
      const double d2 = d.norm2();
      q[0] += m * (3.0 * d.x * d.x - d2);
      q[1] += m * 3.0 * d.x * d.y;
      q[2] += m * 3.0 * d.x * d.z;
      q[3] += m * (3.0 * d.y * d.y - d2);
      q[4] += m * 3.0 * d.y * d.z;
      q[5] += m * (3.0 * d.z * d.z - d2);
    }
  };
  // Deeper levels have no key bits left to split on.
  Ctx ctx{this, params, std::min(params.max_depth, kMortonBits), sorted_keys};
  ctx.append(1);
  ctx.build(0, 0, static_cast<std::uint32_t>(n), 0, root_center, size / 2);
}

void NodeArrays::reserve(std::size_t n) {
  for (auto* v : {&cx, &cy, &cz, &half, &comx, &comy, &comz, &mass}) v->reserve(n);
  for (auto* v : {&first_child, &nchildren, &first, &count}) v->reserve(n);
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

std::vector<std::uint32_t> Octree::groups(std::uint32_t ncrit) const {
  const NodeArrays& a = nodes_;
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    if (a.count[ni] == 0) continue;
    if (a.count[ni] <= ncrit || a.nchildren[ni] == 0) {
      out.push_back(ni);
      continue;
    }
    for (std::uint32_t c = 0; c < a.nchildren[ni]; ++c) stack.push_back(a.first_child[ni] + c);
  }
  // DFS with a stack visits children in reverse; restore tree order so
  // groups sweep the particle array contiguously.
  std::sort(out.begin(), out.end(),
            [&](std::uint32_t x, std::uint32_t y) { return a.first[x] < a.first[y]; });
  return out;
}

}  // namespace greem::tree
