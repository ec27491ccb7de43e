#pragma once
// Particle-particle force kernels.
//
// This is the repository's port of the paper's Phantom-GRAPE force loop:
// the hot kernel evaluates accelerations from an interaction list (tree
// nodes flattened to pseudo-particles plus real particles) onto a group of
// target particles, applying the gP3M cutoff (eq. 3) and an approximate
// reciprocal square root refined to ~24-bit accuracy by the paper's
// third-order iteration  y1 = y0 (1 + h/2 + 3 h^2 / 8),  h = 1 - x y0^2.
// On AVX-512 it does the pair arithmetic in float instead, as the x86
// Phantom-GRAPE does, and accumulates in double.
//
// Flop accounting follows the paper: 51 floating-point operations per
// pairwise interaction (§II-A), used by the benchmarks to convert
// interaction counts into a flop rate, whatever the kernel's precision.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace greem::pp {

/// Operation count per pairwise interaction used for flops accounting
/// (the paper's convention for the cutoff kernel).
inline constexpr int kFlopsPerInteraction = 51;

/// Operation count used by the classic tree codes for a plain Newtonian
/// interaction (Warren & Salmon convention); used by baseline benches.
inline constexpr int kFlopsPerNewtonInteraction = 38;

/// Fast reciprocal square root: float bit-trick seed (~9 bits) followed by
/// one third-order Householder step, as the paper does from the 8-bit
/// HPC-ACE estimate (final accuracy ~24 bits).
double approx_rsqrt(double x);

/// Sources of an interaction list, stored SoA so the batched kernel streams
/// them.  The four columns are storage: entries [0, size()) are the list
/// and the columns may run longer, so a list that is cleared and refilled
/// (one per tree-walk group) reuses them without zero-filling what it
/// writes next.  pad4() appends far-away zero-mass entries until the length
/// is a multiple of 4 (padding is force-neutral).
struct InteractionList {
  std::vector<double> x, y, z, m;

  std::size_t size() const { return len_; }
  void clear() { len_ = 0; }
  void add(const Vec3& pos, double mass);
  /// Grow every column to at least n entries (at least doubling), keeping
  /// the entries below size().
  void grow(std::size_t n);
  /// Set the length to n <= x.size(); the caller has written entries
  /// [size(), n).
  void set_size(std::size_t n);
  void pad4();

 private:
  std::size_t len_ = 0;
};

/// Scalar reference kernel with exact arithmetic (1/sqrt), gP3M cutoff.
/// Adds accelerations of targets `xi` into `acc`.  A pair with r2 == 0 (a
/// target coinciding with a source at eps2 = 0) contributes exactly zero.
void pp_kernel_scalar(std::span<const Vec3> xi, std::span<Vec3> acc,
                      const InteractionList& list, double rcut, double eps2);

/// Optimized batched kernel ("phantom"): approximate rsqrt, branchless
/// cutoff clamp, register-blocked SIMD loop.  Same r2 == 0 rule as
/// pp_kernel_scalar; `list` must be pad4()-ed.
///
/// This is a runtime-dispatched shim: it routes to the fastest
/// implementation the CPU supports (see PhantomVariant), overridable with
/// the GREEM_KERNEL environment variable (read once per process) or
/// set_phantom_variant().  The accuracy contract is per variant:
///   - the double variants (basic, avx2) keep the paper's ~24-bit
///     rsqrt: within 5e-7 x max(1, |a|) of pp_kernel_scalar;
///   - avx512 does the pair arithmetic in float, on coordinates relative to
///     xi[0], and accumulates in double: within 1e-4 x max(1, |a|) on the
///     compact groups the tree walk forms (median ~3e-7).
///
/// Returns the (target, source) pairs it evaluated.  The double variants
/// run every pair of the padded list, xi.size() x list.size().  avx512
/// runs each tile of four targets (and the ni % 4 tail) only on the
/// sources within the cutoff of the tile's float box, plus a small margin,
/// and returns those kept pairs, padding excluded; every pair it skips
/// would have contributed an exact zero.
///
/// A target's last bits depend on its slot in `xi` on avx2: it evaluates
/// whole 4-target blocks and hands the ni % 4 tail to the 1i x 4j basic
/// loop, whose summation order and rsqrt seed differ from the block's.
/// On avx512 they depend on xi[0] and on the kept set of the target's
/// tile, which its tile-mates' box decides: sources past the cutoff of
/// that box change no bit, but moving a target to another tile can move
/// its live pairs to other lanes.  A list the cull keeps whole (every
/// source within the cutoff of every box) gives a target the same bits in
/// every slot and for every ni % 4.
/// Either way the result is deterministic for a given `xi`, but compacting
/// or reordering the targets (for example, dropping a group's ghost
/// members) can change a target within the tolerance.
std::uint64_t pp_kernel_phantom(std::span<const Vec3> xi, std::span<Vec3> acc,
                                const InteractionList& list, double rcut, double eps2);

/// Implementations selectable for the phantom kernel.
///   kAuto          -- fastest available (avx512 > avx2 > basic)
///   kScalar        -- exact pp_kernel_scalar (for A/B benchmarking)
///   kBasic         -- 1i x 4j lane loop, compiler-vectorized (the
///                     portable kernel)
///   kBlockedAvx2   -- 4i x 4j AVX2+FMA intrinsics, rsqrt seed from
///                     _mm_rsqrt_ps + the paper's third-order step
///   kBlockedAvx512 -- 4i x 16j mixed-precision AVX-512 intrinsics: float
///                     pair arithmetic relative to xi[0] with a
///                     _mm512_rsqrt14_ps seed (the software analog of
///                     HPC-ACE frsqrta) + one Newton step, double
///                     accumulation across 512-entry j-blocks; each
///                     4-target tile runs only the sources within the
///                     cutoff of its box
enum class PhantomVariant { kAuto, kScalar, kBasic, kBlockedAvx2, kBlockedAvx512 };

/// True if `v` can execute on this CPU/build.
bool phantom_variant_available(PhantomVariant v);

/// Name used by GREEM_KERNEL and the bench JSON ("auto", "scalar",
/// "basic", "avx2", "avx512").
const char* phantom_variant_name(PhantomVariant v);

/// The variant pp_kernel_phantom currently dispatches to, with kAuto and
/// unavailable requests resolved to a concrete runnable variant.
PhantomVariant phantom_dispatch();

/// Programmatic override (same effect as GREEM_KERNEL; benches use this).
/// Not thread-safe against concurrent pp_kernel_phantom calls.
void set_phantom_variant(PhantomVariant v);

/// Run one specific variant (resolved like phantom_dispatch if
/// unavailable).  pp_kernel_phantom is equivalent to calling this with
/// phantom_dispatch().
std::uint64_t pp_kernel_phantom_variant(PhantomVariant v, std::span<const Vec3> xi,
                                        std::span<Vec3> acc, const InteractionList& list,
                                        double rcut, double eps2);

/// Plain Newtonian kernel (no cutoff) for the pure-tree / direct baselines.
void pp_kernel_newton(std::span<const Vec3> xi, std::span<Vec3> acc,
                      const InteractionList& list, double eps2);

/// A tree node acting through monopole + trace-free quadrupole (the
/// multipole order of the classic pure-tree Gordon Bell codes).
struct QuadSource {
  Vec3 com;
  double mass = 0;
  std::array<double, 6> quad{};  ///< xx,xy,xz,yy,yz,zz about com
};

/// Monopole + quadrupole accelerations from accepted nodes:
///   a = -M r/|r|^3 + Q.r/|r|^5 - (5/2)(r.Q.r) r/|r|^7,  r = x_i - com.
void pp_kernel_quadrupole(std::span<const Vec3> xi, std::span<Vec3> acc,
                          std::span<const QuadSource> nodes, double eps2);

}  // namespace greem::pp
