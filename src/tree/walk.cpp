#include "tree/walk.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "util/morton.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GREEM_X86_WALK 1
#include <immintrin.h>
#endif

// This translation unit is compiled with -ffp-contract=off: a fused
// multiply-add in one classifier but not the other would flip decisions
// at exact ties and break the bitwise equality of the two paths.

namespace greem::tree {
namespace {

enum class Op : std::uint32_t { kExpand, kEmitNode, kEmitLeaf };

struct Token {
  std::uint32_t node;
  Op op;
};

// The walk expands the first cell to open of every block directly and
// defers at most the 7 siblings after it, and only cells above the
// deepest level (max_depth <= kMortonBits) are expanded.
constexpr std::size_t kStackCapacity = 7 * (kMortonBits + 1);

/// The portable classifier: one child at a time, the predicates of the
/// header in their scalar operation order.
struct PortableBlock {
  static ChildMasks classify(const NodeArrays& a, std::uint32_t first, std::uint32_t n,
                             const WalkBox& b) {
    ChildMasks m;
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t i = first + k;
      const double hsum = b.half + a.half[i];
      double bb = 0;
      double gap = std::abs(b.center.x - (a.cx[i] + b.offset.x)) - hsum;
      if (gap > 0) bb += gap * gap;
      gap = std::abs(b.center.y - (a.cy[i] + b.offset.y)) - hsum;
      if (gap > 0) bb += gap * gap;
      gap = std::abs(b.center.z - (a.cz[i] + b.offset.z)) - hsum;
      if (gap > 0) bb += gap * gap;
      // Cutoff pruning: if every pair (group target, node source) is beyond
      // rcut, the gP3M factor vanishes and the node contributes nothing.
      if (bb > b.rcut2) continue;

      // Multipole acceptance: cell size over the closest approach of the
      // group box to the node's center of mass, plus non-overlap.
      double dcom2 = 0;
      gap = std::abs((a.comx[i] + b.offset.x) - b.center.x) - b.half;
      if (gap > 0) dcom2 += gap * gap;
      gap = std::abs((a.comy[i] + b.offset.y) - b.center.y) - b.half;
      if (gap > 0) dcom2 += gap * gap;
      gap = std::abs((a.comz[i] + b.offset.z) - b.center.z) - b.half;
      if (gap > 0) dcom2 += gap * gap;
      const double size = 2.0 * a.half[i];

      const std::uint32_t bit = 1u << k;
      if (dcom2 > 0 && size * size < b.theta2 * dcom2 && bb > 0)
        m.accept |= bit;
      else if (a.nchildren[i] == 0)
        m.leaf |= bit;
      else
        m.open |= bit;
    }
    return m;
  }

  /// Write the shifted com and mass of the `mask` children of `first`,
  /// in lane order, into list slots from `at`.
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
                  gcz = _mm512_set1_pd(b.center.z), gh = _mm512_set1_pd(b.half);
    const __m512d nh = _mm512_maskz_loadu_pd(lanes, a.half.data() + first);
    const __m512d hsum = _mm512_add_pd(gh, nh);

    // Cutoff prune: box-box distance of the shifted cell to the group.
    const __m512d bb = norm2_avx512(
        gap_avx512(lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.cx.data() + first), ox),
                   gcx, hsum),
        gap_avx512(lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.cy.data() + first), oy),
                   gcy, hsum),
        gap_avx512(lanes, _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.cz.data() + first), oz),
                   gcz, hsum));
    const __mmask8 live = static_cast<__mmask8>(
        lanes & ~_mm512_mask_cmp_pd_mask(lanes, bb, _mm512_set1_pd(b.rcut2), _CMP_GT_OQ));

    // Acceptance: com distance to the group cube against the cell size.
    const __m512d dcom2 = norm2_avx512(
        gap_avx512(lanes, gcx,
                   _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.comx.data() + first), ox), gh),
        gap_avx512(lanes, gcy,
                   _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.comy.data() + first), oy), gh),
        gap_avx512(lanes, gcz,
                   _mm512_add_pd(_mm512_maskz_loadu_pd(lanes, a.comz.data() + first), oz), gh));
    const __m512d size = _mm512_mul_pd(_mm512_set1_pd(2.0), nh);
    const __m512d zero = _mm512_setzero_pd();
    __mmask8 accept = _mm512_mask_cmp_pd_mask(live, dcom2, zero, _CMP_GT_OQ);
    accept = _mm512_mask_cmp_pd_mask(accept, _mm512_mul_pd(size, size),
                                     _mm512_mul_pd(_mm512_set1_pd(b.theta2), dcom2), _CMP_LT_OQ);
    accept = _mm512_mask_cmp_pd_mask(accept, bb, zero, _CMP_GT_OQ);

    const __m512i nchildren = _mm512_maskz_loadu_epi32(lanes, a.nchildren.data() + first);
    const auto leaf = static_cast<std::uint32_t>(
        _mm512_mask_cmpeq_epi32_mask(lanes, nchildren, _mm512_setzero_si512()));
    const std::uint32_t rest = static_cast<std::uint32_t>(live & ~accept);
    return {accept, rest & leaf, rest & ~leaf};
  }

  /// PortableBlock::store_accepted as one compress-store per column.
  __attribute__((target("avx512f"))) static void store_accepted(const NodeArrays& a,
                                                                std::uint32_t first,
                                                                std::uint32_t mask,
                                                                const Vec3& off,
                                                                pp::InteractionList& list,
                                                                std::size_t at) {
    const auto m = static_cast<__mmask8>(mask);
    _mm512_mask_compressstoreu_pd(
        list.x.data() + at, m,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m, a.comx.data() + first), _mm512_set1_pd(off.x)));
    _mm512_mask_compressstoreu_pd(
        list.y.data() + at, m,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m, a.comy.data() + first), _mm512_set1_pd(off.y)));
    _mm512_mask_compressstoreu_pd(
        list.z.data() + at, m,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m, a.comz.data() + first), _mm512_set1_pd(off.z)));
    _mm512_mask_compressstoreu_pd(list.m.data() + at, m,
                                  _mm512_maskz_loadu_pd(m, a.mass.data() + first));
  }
};

#endif  // GREEM_X86_WALK

/// The block walk of one image: everything but the classifier and the
/// accepted-node store is shared by both instantiations.  Its members are
/// forced inline into walk_portable and walk_avx512, so the AVX-512
/// block code inlines into the one entry compiled for AVX-512.
template <class Block>
struct ImageWalk {
  const Octree& tree;
  const NodeArrays& a;
  const WalkBox& box;
  WalkSink& sink;
  bool count_ghosts;
  pp::InteractionList& list;
  std::size_t len;  ///< entries written; the list is sized ahead of them

  /// Claim `k` list slots; returns the first.  The columns grow
  /// geometrically ahead of `len`, so an append costs one capacity check
  /// rather than four resizes, and finish() trims them to `len`.
  [[gnu::always_inline]] std::size_t claim(std::size_t k) {
    const std::size_t at = len;
    len += k;
    if (len > list.size()) resize_list(std::max(len, 2 * list.size()));
    return at;
  }

  void resize_list(std::size_t n) {
    for (std::vector<double>* col : {&list.x, &list.y, &list.z, &list.m}) col->resize(n);
  }

  void finish() { resize_list(len); }

  [[gnu::always_inline]] void emit_node(std::uint32_t i) {
    const Vec3 com{a.comx[i] + box.offset.x, a.comy[i] + box.offset.y, a.comz[i] + box.offset.z};
    if (sink.quads) {
      sink.quads->push_back({com, a.mass[i], tree.quads()[i]});
      return;
    }
    const std::size_t at = claim(1);
    list.x[at] = com.x;
    list.y[at] = com.y;
    list.z[at] = com.z;
    list.m[at] = a.mass[i];
  }

  [[gnu::always_inline]] void emit_leaf(std::uint32_t i) {
    const std::uint32_t lo = a.first[i], cnt = a.count[i];
    const Vec3* pos = tree.sorted_pos().data() + lo;
    const double* mass = tree.sorted_mass().data() + lo;
    const std::size_t at = claim(cnt);
    double* x = list.x.data() + at;
    double* y = list.y.data() + at;
    double* z = list.z.data() + at;
    double* m = list.m.data() + at;
    for (std::uint32_t k = 0; k < cnt; ++k) {
      x[k] = pos[k].x + box.offset.x;
      y[k] = pos[k].y + box.offset.y;
      z[k] = pos[k].z + box.offset.z;
      m[k] = mass[k];
    }
    if (count_ghosts) {
      const std::uint32_t* orig = tree.order().data() + lo;
      for (std::uint32_t k = 0; k < cnt; ++k) sink.ghost_sources += orig[k] >= sink.ghost_from;
    }
  }

  /// Emit the accepted and leaf lanes of `mask`, in lane order.
  [[gnu::always_inline]] void emit(std::uint32_t first, const ChildMasks& m, std::uint32_t mask) {
    if ((m.leaf & mask) == 0 && !sink.quads) {
      const std::uint32_t accept = m.accept & mask;
      if (accept)
        Block::store_accepted(a, first, accept, box.offset, list,
                             claim(static_cast<std::size_t>(std::popcount(accept))));
      return;
    }
    for (std::uint32_t bits = (m.accept | m.leaf) & mask; bits; bits &= bits - 1) {
      const auto k = static_cast<std::uint32_t>(std::countr_zero(bits));
      if (m.accept >> k & 1u)
        emit_node(first + k);
      else
        emit_leaf(first + k);
    }
  }

  [[gnu::always_inline]] void run() {
    if (a.count[0] == 0) {  // an empty tree: only its root can be empty
      ++sink.nodes_visited;
      return;
    }
    Token stack[kStackCapacity];
    std::size_t top = 0;
    std::uint32_t first = 0, n = 1;  // the root is a one-lane block
    for (;;) {
      const ChildMasks m = Block::classify(a, first, n, box);
      sink.nodes_visited += n;
      if (m.open == 0) {
        emit(first, m, m.accept | m.leaf);
      } else {
        const auto k0 = static_cast<std::uint32_t>(std::countr_zero(m.open));
        emit(first, m, (1u << k0) - 1);
        // Siblings after the first cell to open wait on the stack, pushed
        // last-first so they pop in index order after its subtree.
        std::uint32_t rest = (m.accept | m.leaf | m.open) & ~((2u << k0) - 1);
        for (; rest; rest &= ~(1u << (31 - std::countl_zero(rest)))) {
          const auto k = static_cast<std::uint32_t>(31 - std::countl_zero(rest));
          const Op op = (m.open >> k & 1u) ? Op::kExpand
                        : (m.accept >> k & 1u) ? Op::kEmitNode
                                               : Op::kEmitLeaf;
          assert(top < kStackCapacity);
          stack[top++] = {first + k, op};
        }
        const std::uint32_t cell = first + k0;
        first = a.first_child[cell];
        n = a.nchildren[cell];
        continue;
      }
      // Drain emit tokens up to the next cell to expand.
      for (;;) {
        if (top == 0) return;
        const Token t = stack[--top];
        if (t.op == Op::kExpand) {
          first = a.first_child[t.node];
          n = a.nchildren[t.node];
          break;
        }
        if (t.op == Op::kEmitNode)
          emit_node(t.node);
        else
          emit_leaf(t.node);
      }
    }
  }
};

void walk_portable(const Octree& tree, const WalkBox& box, WalkSink& sink) {
  ImageWalk<PortableBlock> w{tree, tree.node_arrays(), box, sink,
                             sink.ghost_from < tree.num_particles(), *sink.list,
                             sink.list->size()};
  w.run();
  w.finish();
}

#ifdef GREEM_X86_WALK
__attribute__((target("avx512f"))) void walk_avx512(const Octree& tree,
                                                             const WalkBox& box,
                                                             WalkSink& sink) {
  ImageWalk<Avx512Block> w{tree, tree.node_arrays(), box, sink,
                           sink.ghost_from < tree.num_particles(), *sink.list,
                           sink.list->size()};
  w.run();
  w.finish();
}
#endif

}  // namespace

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

void walk_group(const Octree& tree, std::uint32_t group_node, double theta, double rcut,
                std::span<const Vec3> offsets, WalkSink& sink, WalkClassifier c) {
  assert(!sink.quads || tree.quads().size() == tree.num_nodes());
  const NodeArrays& a = tree.node_arrays();
  WalkBox box;
  box.center = {a.cx[group_node], a.cy[group_node], a.cz[group_node]};
  box.half = a.half[group_node];
  box.rcut2 = std::isfinite(rcut) ? rcut * rcut : std::numeric_limits<double>::infinity();
  box.theta2 = theta * theta;
  auto walk = &walk_portable;
#ifdef GREEM_X86_WALK
  if (c == WalkClassifier::kAvx512 && walk_classifier_available(c)) walk = &walk_avx512;
#endif
  for (const Vec3& off : offsets) {
    box.offset = off;
    walk(tree, box, sink);
  }
}

}  // namespace greem::tree
