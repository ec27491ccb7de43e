#include "tree/walk.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#define GREEM_X86_WALK 1
#include <immintrin.h>
#endif

// This translation unit is compiled with -ffp-contract=off: a fused
// multiply-add in one classifier but not the other would flip decisions
// at exact ties and break the bitwise equality of the two paths.

namespace greem::tree {
namespace {

/// Grow `v` geometrically to at least `n` entries.  The walk's arrays run
/// ahead of their lengths: blocks and leaves store whole 8-lane vectors
/// past their last entry.
template <class T>
[[gnu::always_inline]] inline void make_room(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(std::max(n, 2 * v.size()));
}

/// The portable classifier: one child at a time, the predicates of the
/// header in their scalar operation order.
struct PortableBlock {
  static ChildMasks classify(const NodeArrays& a, std::uint32_t first, std::uint32_t n,
                             const WalkBox& b) {
    ChildMasks m;
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t i = first + k;
      double bb = 0;
      double gap = std::abs(b.center.x - (a.cx[i] + b.offset.x)) - (b.half.x + a.half[i]);
      if (gap > 0) bb += gap * gap;
      gap = std::abs(b.center.y - (a.cy[i] + b.offset.y)) - (b.half.y + a.half[i]);
      if (gap > 0) bb += gap * gap;
      gap = std::abs(b.center.z - (a.cz[i] + b.offset.z)) - (b.half.z + a.half[i]);
      if (gap > 0) bb += gap * gap;
      // Cutoff pruning: if every pair (group target, node source) is beyond
      // rcut, the gP3M factor vanishes and the node contributes nothing.
      if (bb > b.rcut2) continue;

      // Multipole acceptance: cell size over the closest approach of the
      // group box to the node's center of mass, plus non-overlap.
      double dcom2 = 0;
      gap = std::abs((a.comx[i] + b.offset.x) - b.center.x) - b.half.x;
      if (gap > 0) dcom2 += gap * gap;
      gap = std::abs((a.comy[i] + b.offset.y) - b.center.y) - b.half.y;
      if (gap > 0) dcom2 += gap * gap;
      gap = std::abs((a.comz[i] + b.offset.z) - b.center.z) - b.half.z;
      if (gap > 0) dcom2 += gap * gap;
      const double size = 2.0 * a.half[i];

      const std::uint32_t bit = 1u << k;
      if (dcom2 > 0 && size * size < b.theta2 * dcom2 && bb > 0) {
        // An accepted com at or past rcut from the whole group adds 0.
        if (dcom2 < b.rcut2) m.accept |= bit;
      } else if (a.nchildren[i] == 0) {
        m.leaf |= bit;
      } else {
        m.open |= bit;
      }
    }
    return m;
  }

  /// Write the shifted com and mass of the `mask` children of `first`,
  /// in lane order, into list slots from `at`; the list has room for 8.
  static void store_accepted(const NodeArrays& a, std::uint32_t first, std::uint32_t mask,
                             const Vec3& off, pp::InteractionList& list, std::size_t at) {
    for (; mask; mask &= mask - 1, ++at) {
      const std::uint32_t i = first + static_cast<std::uint32_t>(std::countr_zero(mask));
      list.x[at] = a.comx[i] + off.x;
      list.y[at] = a.comy[i] + off.y;
      list.z[at] = a.comz[i] + off.z;
      list.m[at] = a.mass[i];
    }
  }

  /// Write the node indices of the `mask` children of `first`, in lane
  /// order, from `out`; `out` has room for 8.
  static void append(std::uint32_t first, std::uint32_t mask, std::uint32_t* out) {
    std::size_t len = 0;
    for (std::uint32_t k = 0; k < 8; ++k) {
      out[len] = first + k;
      len += mask >> k & 1u;
    }
  }

  /// Copy the `cnt` tree-order particles from `lo`, shifted by `off`, into
  /// list slots from `at`; the list has room for cnt rounded up to 8.
  /// Returns how many have original index >= ghost_from.
  static std::uint32_t copy_leaf(const Octree& t, std::uint32_t lo, std::uint32_t cnt,
                                 const Vec3& off, pp::InteractionList& list, std::size_t at,
                                 std::uint32_t ghost_from) {
    const Vec3* pos = t.sorted_pos().data() + lo;
    const double* mass = t.sorted_mass().data() + lo;
    const std::uint32_t* orig = t.order().data() + lo;
    std::uint32_t ghosts = 0;
    for (std::uint32_t k = 0; k < cnt; ++k) {
      list.x[at + k] = pos[k].x + off.x;
      list.y[at + k] = pos[k].y + off.y;
      list.z[at + k] = pos[k].z + off.z;
      list.m[at + k] = mass[k];
      ghosts += orig[k] >= ghost_from;
    }
    return ghosts;
  }
};

#ifdef GREEM_X86_WALK

// Per-axis clamped gap max(|x - c| - h, 0) on the live lanes; squared and
// summed x, y, z in the scalar code's order (adding a zero term is exact).
__attribute__((target("avx512f"))) inline __m512d gap_avx512(__mmask8 lanes, __m512d x, __m512d c,
                                                              __m512d h) {
  return _mm512_maskz_max_pd(lanes, _mm512_sub_pd(_mm512_abs_pd(_mm512_sub_pd(c, x)), h),
                             _mm512_setzero_pd());
}

__attribute__((target("avx512f"))) inline __m512d norm2_avx512(__m512d gx, __m512d gy,
                                                                 __m512d gz) {
  return _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(gx, gx), _mm512_mul_pd(gy, gy)),
                       _mm512_mul_pd(gz, gz));
}

/// The `m` lanes of src[0, 8) plus `shift`, packed to the low lanes.
__attribute__((target("avx512f"))) inline __m512d compress_avx512(__mmask8 m, const double* src,
                                                                   double shift) {
  return _mm512_maskz_compress_pd(
      m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, src), _mm512_set1_pd(shift)));
}

/// The AVX-512 classifier: the <= 8 children in the lanes of one zmm pass;
/// masked loads leave lanes past `n` untouched.
struct Avx512Block {
  __attribute__((target("avx512f"))) static ChildMasks classify(const NodeArrays& a,
                                                                std::uint32_t first,
                                                                std::uint32_t n,
                                                                const WalkBox& b) {
    const __mmask8 lanes = static_cast<__mmask8>((1u << n) - 1);
    const __m512d ox = _mm512_set1_pd(b.offset.x), oy = _mm512_set1_pd(b.offset.y),
                  oz = _mm512_set1_pd(b.offset.z);
    const __m512d gcx = _mm512_set1_pd(b.center.x), gcy = _mm512_set1_pd(b.center.y),
                  gcz = _mm512_set1_pd(b.center.z);
    const __m512d ghx = _mm512_set1_pd(b.half.x), ghy = _mm512_set1_pd(b.half.y),
                  ghz = _mm512_set1_pd(b.half.z);
    const __m512d nh = _mm512_maskz_loadu_pd(lanes, a.half.data() + first);

    // Cutoff prune: box-box distance of the shifted cell to the group.
    const __m512d bb = norm2_avx512(
        gap_avx512(lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.cx.data() + first), ox),
                   gcx, _mm512_add_pd(ghx, nh)),
        gap_avx512(lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.cy.data() + first), oy),
                   gcy, _mm512_add_pd(ghy, nh)),
        gap_avx512(lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.cz.data() + first), oz),
                   gcz, _mm512_add_pd(ghz, nh)));
    const __m512d rcut2 = _mm512_set1_pd(b.rcut2);
    const __mmask8 live =
        static_cast<__mmask8>(lanes & ~_mm512_mask_cmp_pd_mask(lanes, bb, rcut2, _CMP_GT_OQ));

    // Acceptance: com distance to the group box against the cell size.
    const __m512d dcom2 = norm2_avx512(
        gap_avx512(lanes, gcx,
                   _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.comx.data() + first), ox), ghx),
        gap_avx512(lanes, gcy,
                   _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.comy.data() + first), oy), ghy),
        gap_avx512(lanes, gcz,
                   _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.comz.data() + first), oz), ghz));
    const __m512d size = _mm512_mul_pd(_mm512_set1_pd(2.0), nh);
    const __m512d zero = _mm512_setzero_pd();
    __mmask8 mac = _mm512_mask_cmp_pd_mask(live, dcom2, zero, _CMP_GT_OQ);
    mac = _mm512_mask_cmp_pd_mask(mac, _mm512_mul_pd(size, size),
                                  _mm512_mul_pd(_mm512_set1_pd(b.theta2), dcom2), _CMP_LT_OQ);
    mac = _mm512_mask_cmp_pd_mask(mac, bb, zero, _CMP_GT_OQ);
    const auto accept =
        static_cast<std::uint32_t>(_mm512_mask_cmp_pd_mask(mac, dcom2, rcut2, _CMP_LT_OQ));

    const __m512i nchildren = _mm512_maskz_loadu_epi32(lanes, a.nchildren.data() + first);
    const auto leaf = static_cast<std::uint32_t>(
        _mm512_mask_cmpeq_epi32_mask(lanes, nchildren, _mm512_setzero_si512()));
    const std::uint32_t rest = static_cast<std::uint32_t>(live & ~mac);
    return {accept, rest & leaf, rest & ~leaf};
  }

  /// PortableBlock::store_accepted as one compress per column, stored as
  /// a full vector: the lanes past the accepted ones are scratch that the
  /// next append overwrites (a masked compress-store to memory is slow).
  __attribute__((target("avx512f"))) static void store_accepted(const NodeArrays& a,
                                                                std::uint32_t first,
                                                                std::uint32_t mask,
                                                                const Vec3& off,
                                                                pp::InteractionList& list,
                                                                std::size_t at) {
    const auto m = static_cast<__mmask8>(mask);
    _mm512_storeu_pd(list.x.data() + at, compress_avx512(m, a.comx.data() + first, off.x));
    _mm512_storeu_pd(list.y.data() + at, compress_avx512(m, a.comy.data() + first, off.y));
    _mm512_storeu_pd(list.z.data() + at, compress_avx512(m, a.comz.data() + first, off.z));
    _mm512_storeu_pd(list.m.data() + at, compress_avx512(m, a.mass.data() + first, 0.0));
  }

  /// PortableBlock::append as one compress of the lane indices, stored as
  /// 8 full lanes.
  __attribute__((target("avx512f"))) static void append(std::uint32_t first, std::uint32_t mask,
                                                        std::uint32_t* out) {
    const __m512i idx = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<int>(first)),
        _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
    _mm512_mask_storeu_epi32(out, 0xff,
                             _mm512_maskz_compress_epi32(static_cast<__mmask16>(mask), idx));
  }

  /// PortableBlock::copy_leaf 8 particles at a time: each coordinate is
  /// one masked stride-3 gather from the interleaved positions, stored as
  /// a full vector.
  __attribute__((target("avx512f"))) static std::uint32_t copy_leaf(
      const Octree& t, std::uint32_t lo, std::uint32_t cnt, const Vec3& off,
      pp::InteractionList& list, std::size_t at, std::uint32_t ghost_from) {
    static_assert(sizeof(Vec3) == 3 * sizeof(double));
    const double* pos = reinterpret_cast<const double*>(t.sorted_pos().data() + lo);
    const double* mass = t.sorted_mass().data() + lo;
    const std::uint32_t* orig = t.order().data() + lo;
    const __m256i stride = _mm256_set_epi32(21, 18, 15, 12, 9, 6, 3, 0);
    const __m512d zero = _mm512_setzero_pd();
    const __m512d ox = _mm512_set1_pd(off.x), oy = _mm512_set1_pd(off.y),
                  oz = _mm512_set1_pd(off.z);
    const __m512i gf = _mm512_set1_epi32(static_cast<int>(ghost_from));
    std::uint32_t ghosts = 0;
    for (std::uint32_t k = 0; k < cnt; k += 8) {
      const auto m = static_cast<__mmask8>(cnt - k >= 8 ? 0xffu : (1u << (cnt - k)) - 1);
      const double* p = pos + 3 * std::size_t{k};
      const std::size_t to = at + k;
      _mm512_storeu_pd(list.x.data() + to,
                       _mm512_add_pd(_mm512_mask_i32gather_pd(zero, m, stride, p, 8), ox));
      _mm512_storeu_pd(list.y.data() + to,
                       _mm512_add_pd(_mm512_mask_i32gather_pd(zero, m, stride, p + 1, 8), oy));
      _mm512_storeu_pd(list.z.data() + to,
                       _mm512_add_pd(_mm512_mask_i32gather_pd(zero, m, stride, p + 2, 8), oz));
      _mm512_storeu_pd(list.m.data() + to, _mm512_maskz_loadu_pd(m, mass + k));
      const __m512i o = _mm512_maskz_loadu_epi32(m, orig + k);
      ghosts += static_cast<std::uint32_t>(
          std::popcount(static_cast<unsigned>(_mm512_mask_cmpge_epu32_mask(m, o, gf))));
    }
    return ghosts;
  }
};

#endif  // GREEM_X86_WALK

/// The level-order walk of one image: everything but the classifier and
/// the compress-stores is shared by both instantiations.  Its members are
/// forced inline into walk_portable and walk_avx512, so the AVX-512
/// block code inlines into the one entry compiled for AVX-512.
template <class Block>
struct LevelWalk {
  const Octree& tree;
  const NodeArrays& a;
  const WalkBox& box;
  WalkSink& sink;
  WalkScratch& s;
  pp::InteractionList& list;
  std::size_t len;  ///< entries written; the list is sized ahead of them
  std::size_t next_len = 0, leaves_len = 0;

  /// The list's columns run ahead of `len`; finish() sets its length.
  [[gnu::always_inline]] void room(std::size_t n) {
    if (list.x.size() < n) list.grow(n);
  }

  void finish() { list.set_size(len); }

  /// Classify one child block and append its three classes.
  [[gnu::always_inline]] void block(std::uint32_t first, std::uint32_t n) {
    const ChildMasks m = Block::classify(a, first, n, box);
    sink.nodes_visited += n;
    if (sink.quads) {
      for (std::uint32_t bits = m.accept; bits; bits &= bits - 1) {
        const std::uint32_t i = first + static_cast<std::uint32_t>(std::countr_zero(bits));
        sink.quads->push_back({{a.comx[i] + box.offset.x, a.comy[i] + box.offset.y,
                                a.comz[i] + box.offset.z},
                               a.mass[i],
                               tree.quads()[i]});
      }
    } else {
      room(len + 8);
      Block::store_accepted(a, first, m.accept, box.offset, list, len);
      len += static_cast<std::size_t>(std::popcount(m.accept));
    }
    make_room(s.next, next_len + 8);
    Block::append(first, m.open, s.next.data() + next_len);
    next_len += static_cast<std::size_t>(std::popcount(m.open));
    make_room(s.leaves, leaves_len + 8);
    Block::append(first, m.leaf, s.leaves.data() + leaves_len);
    leaves_len += static_cast<std::size_t>(std::popcount(m.leaf));
  }

  [[gnu::always_inline]] void run() {
    if (a.count[0] == 0) {  // an empty tree: only its root can be empty
      ++sink.nodes_visited;
      return;
    }
    block(0, 1);  // the root is a one-lane block
    while (next_len != 0) {
      std::swap(s.frontier, s.next);
      const std::size_t cells = next_len;
      next_len = 0;
      for (std::size_t f = 0; f < cells; ++f) {
        const std::uint32_t cell = s.frontier[f];
        block(a.first_child[cell], a.nchildren[cell]);
      }
    }
    // The opened leaves' particles, leaf by leaf, after one resize.
    std::size_t total = 0;
    for (std::size_t f = 0; f < leaves_len; ++f) total += a.count[s.leaves[f]];
    room(len + total + 8);
    for (std::size_t f = 0; f < leaves_len; ++f) {
      const std::uint32_t leaf = s.leaves[f], cnt = a.count[leaf];
      sink.ghost_sources +=
          Block::copy_leaf(tree, a.first[leaf], cnt, box.offset, list, len, sink.ghost_from);
      len += cnt;
    }
  }
};

void walk_portable(const Octree& tree, const WalkBox& box, WalkSink& sink, WalkScratch& s) {
  LevelWalk<PortableBlock> w{tree, tree.node_arrays(), box, sink, s, *sink.list,
                             sink.list->size()};
  w.run();
  w.finish();
}

#ifdef GREEM_X86_WALK
__attribute__((target("avx512f"))) void walk_avx512(const Octree& tree, const WalkBox& box,
                                                    WalkSink& sink, WalkScratch& s) {
  LevelWalk<Avx512Block> w{tree, tree.node_arrays(), box, sink, s, *sink.list,
                           sink.list->size()};
  w.run();
  w.finish();
}
#endif

}  // namespace

GroupBox target_box(const Octree& tree, std::span<const std::uint32_t> idx) {
  if (idx.empty()) return {};
  const auto pos = tree.sorted_pos();
  Vec3 lo = pos[idx[0]], hi = lo;
  for (const std::uint32_t i : idx) {
    const Vec3& p = pos[i];
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  // The rounded midpoint lies in [lo, hi]; the half side is the larger
  // rounded distance to either end, so |p - center| <= half holds for
  // every p in [lo, hi] after rounding too (rounding is monotone).
  const Vec3 c = (lo + hi) * 0.5;
  return {c, {std::max(hi.x - c.x, c.x - lo.x), std::max(hi.y - c.y, c.y - lo.y),
              std::max(hi.z - c.z, c.z - lo.z)}};
}

bool walk_classifier_available(WalkClassifier c) {
  switch (c) {
    case WalkClassifier::kPortable:
      return true;
    case WalkClassifier::kAvx512:
#ifdef GREEM_X86_WALK
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

WalkClassifier walk_dispatch() {
  static const WalkClassifier c = walk_classifier_available(WalkClassifier::kAvx512)
                                      ? WalkClassifier::kAvx512
                                      : WalkClassifier::kPortable;
  return c;
}

const char* walk_classifier_name(WalkClassifier c) {
  return c == WalkClassifier::kAvx512 ? "avx512" : "portable";
}

ChildMasks classify_children(WalkClassifier c, const NodeArrays& nodes, std::uint32_t first,
                             std::uint32_t n, const WalkBox& box) {
  assert(n >= 1 && n <= 8);
#ifdef GREEM_X86_WALK
  if (c == WalkClassifier::kAvx512 && walk_classifier_available(c))
    return Avx512Block::classify(nodes, first, n, box);
#endif
  (void)c;
  return PortableBlock::classify(nodes, first, n, box);
}

void walk_group(const Octree& tree, const GroupBox& group, double theta, double rcut,
                std::span<const Vec3> offsets, WalkSink& sink, WalkScratch& scratch,
                WalkClassifier c) {
  assert(!sink.quads || tree.quads().size() == tree.num_nodes());
  WalkBox box;
  box.center = group.center;
  box.half = group.half;
  box.rcut2 = std::isfinite(rcut) ? rcut * rcut : std::numeric_limits<double>::infinity();
  box.theta2 = theta * theta;
  auto walk = &walk_portable;
#ifdef GREEM_X86_WALK
  if (c == WalkClassifier::kAvx512 && walk_classifier_available(c)) walk = &walk_avx512;
#endif
  for (const Vec3& off : offsets) {
    box.offset = off;
    walk(tree, box, sink, scratch);
  }
}

}  // namespace greem::tree
