#include "pp/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define GREEM_X86_KERNELS 1
#include <immintrin.h>
#endif

// This translation unit holds the hot "Phantom-GRAPE" force loop and is
// compiled with aggressive vectorization flags (see src/CMakeLists.txt):
// the kernel is approximate by design (24-bit rsqrt), so value-changing
// optimizations are in-contract here and only here.
//
// Layout of this file: the scalar rsqrt, the basic (1i x 4j) kernel, the
// AVX2 (double) and AVX-512 (mixed precision) intrinsic kernels (paper
// §II-A: register blocking so four i-particles share every j-lane load --
// the HPC-ACE code holds the same 4x4 tile in registers), and the runtime
// dispatch shim at the bottom.

namespace greem::pp {

double approx_rsqrt(double x) {
  // Seed: float bit trick (raw error ~3.4%) refined by one float Newton
  // step to ~0.2% -- the software analog of the paper's 8-bit HPC-ACE
  // frsqrta estimate...
  const auto xf = static_cast<float>(x);
  const auto i = std::bit_cast<std::uint32_t>(xf);
  float seed = std::bit_cast<float>(std::uint32_t{0x5f3759df} - (i >> 1));
  seed *= 1.5f - 0.5f * xf * seed * seed;
  const double y0 = static_cast<double>(seed);
  // ...then the paper's single third-order (Householder) step:
  // error ~ h0^3, i.e. ~24-bit accuracy from the 8-bit seed.
  const double h0 = 1.0 - x * y0 * y0;
  return y0 * (1.0 + h0 * (0.5 + h0 * 0.375));
}

namespace {

// The pre-blocking kernel: one target at a time, 4-wide j-lane loop the
// compiler keeps in SIMD registers.  The portable kernel of the dispatch
// table and the i-tail handler of the AVX2 kernel.
void kernel_basic(std::span<const Vec3> xi, std::span<Vec3> acc,
                  const InteractionList& list, double rcut, double eps2) {
  const double two_over_rcut = 2.0 / rcut;
  const std::size_t nj = list.size();
  const double* jx = list.x.data();
  const double* jy = list.y.data();
  const double* jz = list.z.data();
  const double* jm = list.m.data();

  for (std::size_t i = 0; i < xi.size(); ++i) {
    const double pix = xi[i].x, piy = xi[i].y, piz = xi[i].z;
    double ax = 0, ay = 0, az = 0;
    for (std::size_t j = 0; j < nj; j += 4) {
      double fx[4], fy[4], fz[4];
      for (int l = 0; l < 4; ++l) {
        const double dx = jx[j + l] - pix;
        const double dy = jy[j + l] - piy;
        const double dz = jz[j + l] - piz;
        const double r2 = dx * dx + dy * dy + dz * dz + eps2;
        const double y0 = approx_rsqrt(r2);
        const double r = r2 * y0;
        // Branchless cutoff: clamp xi to the edge where g vanishes.
        double q = r * two_over_rcut;
        q = q < 2.0 ? q : 2.0;
        const double zeta = q > 1.0 ? q - 1.0 : 0.0;
        const double z2 = zeta * zeta;
        const double z6 = z2 * z2 * z2;
        const double poly =
            -8.0 / 5.0 +
            q * q * (8.0 / 5.0 + q * (-1.0 / 2.0 + q * (-12.0 / 35.0 + q * (3.0 / 20.0))));
        const double g =
            1.0 + q * q * q * poly - z6 * (3.0 / 35.0 + q * (18.0 / 35.0 + q * (1.0 / 5.0)));
        // At r2 == 0 (a self pair at eps = 0) the bit-trick seed stays
        // finite and dx = 0, so the pair contributes exactly zero.
        const double f = jm[j + l] * g * (y0 * y0 * y0);
        fx[l] = f * dx;
        fy[l] = f * dy;
        fz[l] = f * dz;
      }
      ax += (fx[0] + fx[1]) + (fx[2] + fx[3]);
      ay += (fy[0] + fy[1]) + (fy[2] + fy[3]);
      az += (fz[0] + fz[1]) + (fz[2] + fz[3]);
    }
    acc[i] += Vec3{ax, ay, az};
  }
}

#ifdef GREEM_X86_KERNELS

// ---------------------------------------------------------------- AVX2 --
// 4i x 4j tile in ymm registers.  rsqrt seed: cut r2 to float,
// _mm_rsqrt_ps (~12-bit), widen back, then the paper's third-order step in
// double: final error ~h^3 ~ 1e-10, inside the 24-bit contract.

__attribute__((target("avx2,fma")))
inline __m256d cutoff_force_avx2(__m256d r2, __m256d mj, __m256d two_over_rcut) {
  const __m256d one = _mm256_set1_pd(1.0);
  // r2 == 0 (a self pair at eps = 0) has an infinite seed: zero it, which
  // zeroes the pair's force exactly and leaves every other lane's bits.
  const __m256d y0 = _mm256_and_pd(_mm256_cmp_pd(r2, _mm256_setzero_pd(), _CMP_GT_OQ),
                                   _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(r2))));
  const __m256d h0 = _mm256_fnmadd_pd(_mm256_mul_pd(r2, y0), y0, one);
  const __m256d y1 = _mm256_mul_pd(
      y0, _mm256_fmadd_pd(
              h0, _mm256_fmadd_pd(h0, _mm256_set1_pd(0.375), _mm256_set1_pd(0.5)), one));
  __m256d q = _mm256_mul_pd(_mm256_mul_pd(r2, y1), two_over_rcut);
  q = _mm256_min_pd(q, _mm256_set1_pd(2.0));
  const __m256d zeta = _mm256_max_pd(_mm256_sub_pd(q, one), _mm256_setzero_pd());
  const __m256d z2 = _mm256_mul_pd(zeta, zeta);
  const __m256d z6 = _mm256_mul_pd(_mm256_mul_pd(z2, z2), z2);
  const __m256d q2 = _mm256_mul_pd(q, q);
  __m256d poly = _mm256_fmadd_pd(q, _mm256_set1_pd(3.0 / 20.0), _mm256_set1_pd(-12.0 / 35.0));
  poly = _mm256_fmadd_pd(q, poly, _mm256_set1_pd(-0.5));
  poly = _mm256_fmadd_pd(q, poly, _mm256_set1_pd(8.0 / 5.0));
  poly = _mm256_fmadd_pd(q2, poly, _mm256_set1_pd(-8.0 / 5.0));
  __m256d zp = _mm256_fmadd_pd(q, _mm256_set1_pd(1.0 / 5.0), _mm256_set1_pd(18.0 / 35.0));
  zp = _mm256_fmadd_pd(q, zp, _mm256_set1_pd(3.0 / 35.0));
  __m256d g = _mm256_fmadd_pd(_mm256_mul_pd(q2, q), poly, one);
  g = _mm256_fnmadd_pd(z6, zp, g);
  return _mm256_mul_pd(_mm256_mul_pd(mj, g), _mm256_mul_pd(_mm256_mul_pd(y1, y1), y1));
}

__attribute__((target("avx2,fma")))
inline double hsum_avx2(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

__attribute__((target("avx2,fma")))
void kernel_blocked_avx2(std::span<const Vec3> xi, std::span<Vec3> acc,
                         const InteractionList& list, double rcut, double eps2) {
  const __m256d two_over_rcut = _mm256_set1_pd(2.0 / rcut);
  const __m256d veps2 = _mm256_set1_pd(eps2);
  const std::size_t nj = list.size();
  const double* jx = list.x.data();
  const double* jy = list.y.data();
  const double* jz = list.z.data();
  const double* jm = list.m.data();

  const std::size_t ni = xi.size();
  std::size_t i0 = 0;
  for (; i0 + 4 <= ni; i0 += 4) {
    const __m256d p0x = _mm256_set1_pd(xi[i0 + 0].x), p0y = _mm256_set1_pd(xi[i0 + 0].y),
                  p0z = _mm256_set1_pd(xi[i0 + 0].z);
    const __m256d p1x = _mm256_set1_pd(xi[i0 + 1].x), p1y = _mm256_set1_pd(xi[i0 + 1].y),
                  p1z = _mm256_set1_pd(xi[i0 + 1].z);
    const __m256d p2x = _mm256_set1_pd(xi[i0 + 2].x), p2y = _mm256_set1_pd(xi[i0 + 2].y),
                  p2z = _mm256_set1_pd(xi[i0 + 2].z);
    const __m256d p3x = _mm256_set1_pd(xi[i0 + 3].x), p3y = _mm256_set1_pd(xi[i0 + 3].y),
                  p3z = _mm256_set1_pd(xi[i0 + 3].z);
    __m256d a0x = _mm256_setzero_pd(), a0y = a0x, a0z = a0x;
    __m256d a1x = a0x, a1y = a0x, a1z = a0x;
    __m256d a2x = a0x, a2y = a0x, a2z = a0x;
    __m256d a3x = a0x, a3y = a0x, a3z = a0x;
    for (std::size_t j = 0; j < nj; j += 4) {
      const __m256d xj = _mm256_loadu_pd(jx + j);
      const __m256d yj = _mm256_loadu_pd(jy + j);
      const __m256d zj = _mm256_loadu_pd(jz + j);
      const __m256d mj = _mm256_loadu_pd(jm + j);
#define GREEM_AVX2_ONE_I(PX, PY, PZ, AX, AY, AZ)                       \
      {                                                                \
        const __m256d dx = _mm256_sub_pd(xj, PX);                      \
        const __m256d dy = _mm256_sub_pd(yj, PY);                      \
        const __m256d dz = _mm256_sub_pd(zj, PZ);                      \
        __m256d r2 = _mm256_fmadd_pd(dx, dx, veps2);                   \
        r2 = _mm256_fmadd_pd(dy, dy, r2);                              \
        r2 = _mm256_fmadd_pd(dz, dz, r2);                              \
        const __m256d f = cutoff_force_avx2(r2, mj, two_over_rcut);    \
        AX = _mm256_fmadd_pd(f, dx, AX);                               \
        AY = _mm256_fmadd_pd(f, dy, AY);                               \
        AZ = _mm256_fmadd_pd(f, dz, AZ);                               \
      }
      GREEM_AVX2_ONE_I(p0x, p0y, p0z, a0x, a0y, a0z)
      GREEM_AVX2_ONE_I(p1x, p1y, p1z, a1x, a1y, a1z)
      GREEM_AVX2_ONE_I(p2x, p2y, p2z, a2x, a2y, a2z)
      GREEM_AVX2_ONE_I(p3x, p3y, p3z, a3x, a3y, a3z)
#undef GREEM_AVX2_ONE_I
    }
    acc[i0 + 0] += Vec3{hsum_avx2(a0x), hsum_avx2(a0y), hsum_avx2(a0z)};
    acc[i0 + 1] += Vec3{hsum_avx2(a1x), hsum_avx2(a1y), hsum_avx2(a1z)};
    acc[i0 + 2] += Vec3{hsum_avx2(a2x), hsum_avx2(a2y), hsum_avx2(a2z)};
    acc[i0 + 3] += Vec3{hsum_avx2(a3x), hsum_avx2(a3y), hsum_avx2(a3z)};
  }
  if (i0 < ni) kernel_basic(xi.subspan(i0), acc.subspan(i0), list, rcut, eps2);
}

// -------------------------------------------------------------- AVX-512 --
// Mixed precision, the arithmetic of the x86 Phantom-GRAPE builds (the
// K-computer port runs double only because HPC-ACE has no wider float
// SIMD): pair arithmetic in float on 4i x 16j tiles (the ni % 4 tail on a
// 1-3i tile of the same code), accumulation in double.  The list is
// converted once per call, in stack-resident j-blocks, to float coordinates
// relative to xi[0], so a pair separation keeps float's relative precision
// at the group's scale rather than the box's.  Lane partial sums stay in
// float within a block and are reduced into double across blocks.  rsqrt
// seed: _mm512_rsqrt14_ps (14-bit, the hardware estimate HPC-ACE's frsqrta
// stands for) + one Newton step, which reaches float's own rounding.
//
// A group-shared list holds every source within rcut of the group's box,
// so a tile of four targets is often past the cutoff of much of it (half
// of the list on a uniform box).  Those pairs come out of
// cutoff_force_mixed as exact zeros, so each tile first compacts the
// j-block to the sources within rcut of the float box of its own targets
// and runs only those.  The cull keeps a margin over rcut^2 for the rsqrt
// error in q < 2, and float subtraction and fma are monotone, so it drops
// only pairs the mask zeroes: the live pairs are the same and only their
// lanes move.

constexpr std::size_t kJBlock = 512;  // 8 KB of float SoA per j-block
/// Full lane masks.  The kernel calls the zero-masking form of every
/// intrinsic whose plain form passes an undefined vector through as the
/// merge source (rsqrt14, max, cvtps_pd, extractf64x4): with every lane
/// selected it is the same instruction, and GCC 12 does not flag the
/// undefined operand as maybe-uninitialized.
constexpr __mmask16 kAll16 = 0xFFFF;
constexpr __mmask8 kAll8 = 0xFF;
/// Relative margin of the cull over rcut^2: covers the rsqrt14 + Newton
/// error (~1e-7) in the kernel's q < 2 test with a wide berth.
constexpr float kCullMargin = 1e-4f;

__attribute__((target("avx512f")))
inline __m512 cutoff_force_mixed(__m512 r2, __m512 mj, __m512 two_over_rcut) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 y0 = _mm512_maskz_rsqrt14_ps(kAll16, r2);
  const __m512 h0 = _mm512_fnmadd_ps(_mm512_mul_ps(r2, y0), y0, one);
  const __m512 y1 = _mm512_fmadd_ps(_mm512_mul_ps(y0, h0), _mm512_set1_ps(0.5f), y0);
  const __m512 q = _mm512_mul_ps(_mm512_mul_ps(r2, y1), two_over_rcut);
  // Only pairs with 0 < r < rcut contribute: r2 == 0 (a self pair at
  // eps = 0, whose rsqrt is infinite) and q >= 2 (beyond the cutoff, where
  // float leaves a residue in the polynomial) are masked to exact zeros.
  const __mmask16 live = _mm512_mask_cmp_ps_mask(
      _mm512_cmp_ps_mask(r2, _mm512_setzero_ps(), _CMP_GT_OQ), q, two, _CMP_LT_OQ);
  const __m512 zeta = _mm512_maskz_max_ps(kAll16, _mm512_sub_ps(q, one), _mm512_setzero_ps());
  const __m512 z2 = _mm512_mul_ps(zeta, zeta);
  const __m512 z6 = _mm512_mul_ps(_mm512_mul_ps(z2, z2), z2);
  const __m512 q2 = _mm512_mul_ps(q, q);
  __m512 poly = _mm512_fmadd_ps(q, _mm512_set1_ps(3.0f / 20.0f), _mm512_set1_ps(-12.0f / 35.0f));
  poly = _mm512_fmadd_ps(q, poly, _mm512_set1_ps(-0.5f));
  poly = _mm512_fmadd_ps(q, poly, _mm512_set1_ps(8.0f / 5.0f));
  poly = _mm512_fmadd_ps(q2, poly, _mm512_set1_ps(-8.0f / 5.0f));
  __m512 zp = _mm512_fmadd_ps(q, _mm512_set1_ps(1.0f / 5.0f), _mm512_set1_ps(18.0f / 35.0f));
  zp = _mm512_fmadd_ps(q, zp, _mm512_set1_ps(3.0f / 35.0f));
  __m512 g = _mm512_fmadd_ps(_mm512_mul_ps(q2, q), poly, one);
  g = _mm512_fnmadd_ps(z6, zp, g);
  return _mm512_maskz_mul_ps(live, _mm512_mul_ps(mj, g),
                             _mm512_mul_ps(_mm512_mul_ps(y1, y1), y1));
}

/// 256-bit half kHalf (0 low, 1 high) of a 512-bit vector.
template <int kHalf>
__attribute__((target("avx512f"))) inline __m256d half_of(__m512d v) {
  return _mm512_maskz_extractf64x4_pd(kAll8, v, kHalf);
}

/// Sum of the 16 float lanes, widened to double before the first add; the
/// double lanes then add in _mm512_reduce_add_pd's order (high half + low
/// half, then the 128-bit halves, then the two lanes).
__attribute__((target("avx512f")))
inline double reduce_ps_in_pd(__m512 v) {
  const __m512d vd = _mm512_castps_pd(v);
  const __m512d lo = _mm512_maskz_cvtps_pd(kAll8, _mm256_castpd_ps(half_of<0>(vd)));
  const __m512d hi = _mm512_maskz_cvtps_pd(kAll8, _mm256_castpd_ps(half_of<1>(vd)));
  const __m512d s = _mm512_add_pd(lo, hi);
  const __m256d t = _mm256_add_pd(half_of<1>(s), half_of<0>(s));
  const __m128d u = _mm_add_pd(_mm256_extractf128_pd(t, 1), _mm256_castpd256_pd128(t));
  return u[0] + u[1];
}

/// One j-block of the list in float, relative to the group origin, padded
/// to whole 16-lane chunks.  Lives on the kernel's stack.
struct MixedBlock {
  alignas(64) float x[kJBlock], y[kJBlock], z[kJBlock], m[kJBlock];
  std::size_t n16 = 0;

  /// Far-away massless sources fill [n, n16) up to the next whole chunk.
  void pad(std::size_t n) {
    n16 = (n + 15) & ~std::size_t{15};
    for (std::size_t k = n; k < n16; ++k) {
      x[k] = y[k] = z[k] = 1.0e9f;
      m[k] = 0.0f;
    }
  }
};

/// Compacts into `kept`, in list order, the sources of `blk` whose
/// distance d to the box [lo, hi] has d^2 + eps^2 < cut2, and pads it.
/// d is taken per axis as max(lo - x, x - hi, 0) in float, so a target in
/// the box is never nearer to a source than its box is.  Returns the kept
/// count, padding excluded.
__attribute__((target("avx512f"))) inline std::size_t cull_to_box(
    const MixedBlock& blk, const float lo[3], const float hi[3], __m512 veps2, __m512 cut2,
    MixedBlock& kept) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 lox = _mm512_set1_ps(lo[0]), loy = _mm512_set1_ps(lo[1]),
               loz = _mm512_set1_ps(lo[2]);
  const __m512 hix = _mm512_set1_ps(hi[0]), hiy = _mm512_set1_ps(hi[1]),
               hiz = _mm512_set1_ps(hi[2]);
  std::size_t nk = 0;
  for (std::size_t j = 0; j < blk.n16; j += 16) {
    const __m512 xj = _mm512_load_ps(blk.x + j);
    const __m512 yj = _mm512_load_ps(blk.y + j);
    const __m512 zj = _mm512_load_ps(blk.z + j);
    const __m512 dx =
        _mm512_maskz_max_ps(
            kAll16, _mm512_maskz_max_ps(kAll16, _mm512_sub_ps(lox, xj), _mm512_sub_ps(xj, hix)),
            zero);
    const __m512 dy =
        _mm512_maskz_max_ps(
            kAll16, _mm512_maskz_max_ps(kAll16, _mm512_sub_ps(loy, yj), _mm512_sub_ps(yj, hiy)),
            zero);
    const __m512 dz =
        _mm512_maskz_max_ps(
            kAll16, _mm512_maskz_max_ps(kAll16, _mm512_sub_ps(loz, zj), _mm512_sub_ps(zj, hiz)),
            zero);
    __m512 d2 = _mm512_fmadd_ps(dx, dx, veps2);
    d2 = _mm512_fmadd_ps(dy, dy, d2);
    d2 = _mm512_fmadd_ps(dz, dz, d2);
    const __mmask16 in = _mm512_cmp_ps_mask(d2, cut2, _CMP_LT_OQ);
    // Register compress + full 16-lane store: nk <= j keeps the store
    // inside `kept`, and the next chunk overwrites the lanes past nk.
    _mm512_storeu_ps(kept.x + nk, _mm512_maskz_compress_ps(in, xj));
    _mm512_storeu_ps(kept.y + nk, _mm512_maskz_compress_ps(in, yj));
    _mm512_storeu_ps(kept.z + nk, _mm512_maskz_compress_ps(in, zj));
    _mm512_storeu_ps(kept.m + nk, _mm512_maskz_compress_ps(in, _mm512_load_ps(blk.m + j)));
    nk += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(in)));
  }
  kept.pad(nk);
  return nk;
}

/// NI targets (NI <= 4) at float coordinates (tx, ty, tz), relative to the
/// group origin, against one j-block; the sums are added into acc[0..NI).
/// A target runs the same operations whatever NI is, so the ni % 4 tail
/// gets the bits it would get inside a 4-target tile on the same block.
template <int NI>
__attribute__((target("avx512f"))) inline void mixed_tile(const MixedBlock& blk,
                                                         const float* tx, const float* ty,
                                                         const float* tz, Vec3* acc,
                                                         __m512 veps2, __m512 two_over_rcut) {
  __m512 px[NI], py[NI], pz[NI], ax[NI], ay[NI], az[NI];
  for (int b = 0; b < NI; ++b) {
    px[b] = _mm512_set1_ps(tx[b]);
    py[b] = _mm512_set1_ps(ty[b]);
    pz[b] = _mm512_set1_ps(tz[b]);
    ax[b] = ay[b] = az[b] = _mm512_setzero_ps();
  }
  for (std::size_t j = 0; j < blk.n16; j += 16) {
    const __m512 xj = _mm512_load_ps(blk.x + j);
    const __m512 yj = _mm512_load_ps(blk.y + j);
    const __m512 zj = _mm512_load_ps(blk.z + j);
    const __m512 mj = _mm512_load_ps(blk.m + j);
    for (int b = 0; b < NI; ++b) {
      const __m512 dx = _mm512_sub_ps(xj, px[b]);
      const __m512 dy = _mm512_sub_ps(yj, py[b]);
      const __m512 dz = _mm512_sub_ps(zj, pz[b]);
      __m512 r2 = _mm512_fmadd_ps(dx, dx, veps2);
      r2 = _mm512_fmadd_ps(dy, dy, r2);
      r2 = _mm512_fmadd_ps(dz, dz, r2);
      const __m512 f = cutoff_force_mixed(r2, mj, two_over_rcut);
      ax[b] = _mm512_fmadd_ps(f, dx, ax[b]);
      ay[b] = _mm512_fmadd_ps(f, dy, ay[b]);
      az[b] = _mm512_fmadd_ps(f, dz, az[b]);
    }
  }
  for (int b = 0; b < NI; ++b)
    acc[b] += Vec3{reduce_ps_in_pd(ax[b]), reduce_ps_in_pd(ay[b]), reduce_ps_in_pd(az[b])};
}

/// The NI targets at xi (NI <= 4) against the sources of `blk` within the
/// cutoff of their float box; returns the (target, kept source) pairs run.
template <int NI>
__attribute__((target("avx512f"))) inline std::uint64_t culled_tile(
    const MixedBlock& blk, MixedBlock& kept, const Vec3* xi, Vec3* acc, const Vec3& origin,
    __m512 veps2, __m512 two_over_rcut, __m512 cut2) {
  float tx[NI], ty[NI], tz[NI];
  for (int b = 0; b < NI; ++b) {
    tx[b] = static_cast<float>(xi[b].x - origin.x);
    ty[b] = static_cast<float>(xi[b].y - origin.y);
    tz[b] = static_cast<float>(xi[b].z - origin.z);
  }
  float lo[3] = {tx[0], ty[0], tz[0]}, hi[3] = {tx[0], ty[0], tz[0]};
  for (int b = 1; b < NI; ++b) {
    lo[0] = std::min(lo[0], tx[b]), hi[0] = std::max(hi[0], tx[b]);
    lo[1] = std::min(lo[1], ty[b]), hi[1] = std::max(hi[1], ty[b]);
    lo[2] = std::min(lo[2], tz[b]), hi[2] = std::max(hi[2], tz[b]);
  }
  const std::size_t nk = cull_to_box(blk, lo, hi, veps2, cut2, kept);
  mixed_tile<NI>(kept, tx, ty, tz, acc, veps2, two_over_rcut);
  return std::uint64_t{NI} * nk;
}

__attribute__((target("avx512f")))
std::uint64_t kernel_blocked_avx512(std::span<const Vec3> xi, std::span<Vec3> acc,
                                    const InteractionList& list, double rcut, double eps2) {
  const std::size_t ni = xi.size();
  if (ni == 0) return 0;
  const Vec3 origin = xi[0];
  const __m512 two_over_rcut = _mm512_set1_ps(static_cast<float>(2.0 / rcut));
  const __m512 veps2 = _mm512_set1_ps(static_cast<float>(eps2));
  const __m512 cut2 = _mm512_set1_ps(static_cast<float>(rcut * rcut) * (1.0f + kCullMargin));
  const std::size_t nj = list.size();

  MixedBlock blk, kept;
  std::uint64_t pairs = 0;
  for (std::size_t jb = 0; jb < nj; jb += kJBlock) {
    const std::size_t n = std::min(kJBlock, nj - jb);
    for (std::size_t k = 0; k < n; ++k) {
      blk.x[k] = static_cast<float>(list.x[jb + k] - origin.x);
      blk.y[k] = static_cast<float>(list.y[jb + k] - origin.y);
      blk.z[k] = static_cast<float>(list.z[jb + k] - origin.z);
      blk.m[k] = static_cast<float>(list.m[jb + k]);
    }
    blk.pad(n);
    std::size_t i = 0;
    for (; i + 4 <= ni; i += 4)
      pairs += culled_tile<4>(blk, kept, &xi[i], &acc[i], origin, veps2, two_over_rcut, cut2);
    switch (ni - i) {
      case 3:
        pairs += culled_tile<3>(blk, kept, &xi[i], &acc[i], origin, veps2, two_over_rcut, cut2);
        break;
      case 2:
        pairs += culled_tile<2>(blk, kept, &xi[i], &acc[i], origin, veps2, two_over_rcut, cut2);
        break;
      case 1:
        pairs += culled_tile<1>(blk, kept, &xi[i], &acc[i], origin, veps2, two_over_rcut, cut2);
        break;
      default: break;
    }
  }
  return pairs;
}

#endif  // GREEM_X86_KERNELS

// ------------------------------------------------------------- dispatch --

PhantomVariant resolve(PhantomVariant v) {
  if (v == PhantomVariant::kAuto) {
#ifdef GREEM_X86_KERNELS
    if (__builtin_cpu_supports("avx512f")) return PhantomVariant::kBlockedAvx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return PhantomVariant::kBlockedAvx2;
#endif
    return PhantomVariant::kBasic;
  }
  return phantom_variant_available(v) ? v : resolve(PhantomVariant::kAuto);
}

PhantomVariant env_variant() {
  const char* env = std::getenv("GREEM_KERNEL");
  if (env == nullptr) return PhantomVariant::kAuto;
  for (const PhantomVariant v :
       {PhantomVariant::kAuto, PhantomVariant::kScalar, PhantomVariant::kBasic,
        PhantomVariant::kBlockedAvx2, PhantomVariant::kBlockedAvx512})
    if (std::strcmp(env, phantom_variant_name(v)) == 0) return v;
  return PhantomVariant::kAuto;
}

// Resolved once per process from GREEM_KERNEL; set_phantom_variant
// overrides it (benchmarking only, not synchronized with kernel calls).
PhantomVariant g_variant = resolve(env_variant());

}  // namespace

bool phantom_variant_available(PhantomVariant v) {
  switch (v) {
    case PhantomVariant::kAuto:
    case PhantomVariant::kScalar:
    case PhantomVariant::kBasic:
      return true;
    case PhantomVariant::kBlockedAvx2:
#ifdef GREEM_X86_KERNELS
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case PhantomVariant::kBlockedAvx512:
#ifdef GREEM_X86_KERNELS
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

const char* phantom_variant_name(PhantomVariant v) {
  switch (v) {
    case PhantomVariant::kAuto: return "auto";
    case PhantomVariant::kScalar: return "scalar";
    case PhantomVariant::kBasic: return "basic";
    case PhantomVariant::kBlockedAvx2: return "avx2";
    case PhantomVariant::kBlockedAvx512: return "avx512";
  }
  return "?";
}

PhantomVariant phantom_dispatch() { return g_variant; }

void set_phantom_variant(PhantomVariant v) { g_variant = resolve(v); }

std::uint64_t pp_kernel_phantom_variant(PhantomVariant v, std::span<const Vec3> xi,
                                        std::span<Vec3> acc, const InteractionList& list,
                                        double rcut, double eps2) {
  switch (resolve(v)) {
#ifdef GREEM_X86_KERNELS
    case PhantomVariant::kBlockedAvx512:
      return kernel_blocked_avx512(xi, acc, list, rcut, eps2);
    case PhantomVariant::kBlockedAvx2:
      kernel_blocked_avx2(xi, acc, list, rcut, eps2);
      break;
#endif
    case PhantomVariant::kScalar:
      pp_kernel_scalar(xi, acc, list, rcut, eps2);
      break;
    default:
      kernel_basic(xi, acc, list, rcut, eps2);
      break;
  }
  return std::uint64_t{xi.size()} * list.size();
}

std::uint64_t pp_kernel_phantom(std::span<const Vec3> xi, std::span<Vec3> acc,
                                const InteractionList& list, double rcut, double eps2) {
  return pp_kernel_phantom_variant(g_variant, xi, acc, list, rcut, eps2);
}

}  // namespace greem::pp
