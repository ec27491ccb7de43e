// Tests of the force-split functions and the PP kernels: paper eq. (3)
// against direct numerical integration of the S2-S2 interaction, the
// k-space shape factor, the approximate rsqrt accuracy, and the phantom
// kernel against the exact scalar kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "pp/cutoff.hpp"
#include "pp/kernels.hpp"
#include "util/rng.hpp"

namespace greem::pp {
namespace {

/// Per-variant accuracy contract against pp_kernel_scalar, relative to
/// max(1, |a|): the paper's ~24-bit rsqrt for the double variants, float
/// pair arithmetic (double accumulation) for the mixed-precision avx512.
double variant_tolerance(PhantomVariant v) {
  return v == PhantomVariant::kBlockedAvx512 ? 1e-4 : 5e-7;
}

constexpr PhantomVariant kAllVariants[] = {
    PhantomVariant::kScalar, PhantomVariant::kBasic, PhantomVariant::kBlockedAvx2,
    PhantomVariant::kBlockedAvx512};

/// A compact group of `ni` targets (a cell of side 0.05, as the traversal
/// provides) and `nj` sources around it, unpadded.
void compact_group(Rng& rng, std::size_t ni, std::size_t nj, std::vector<Vec3>& xi,
                   InteractionList& list) {
  xi.resize(ni);
  for (auto& p : xi)
    p = {0.4 + rng.uniform(0.0, 0.05), 0.3 + rng.uniform(0.0, 0.05),
         0.6 + rng.uniform(0.0, 0.05)};
  list.clear();
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.6), rng.uniform(0.4, 0.9)},
             rng.uniform(0.5, 2.0));
}

/// A group of `ni` targets spread over a cube of side 0.35, wider than the
/// rcut = 0.3 the tests use, and `nj` sources over most of the unit box, so
/// each 4-target tile of the avx512 kernel keeps its own part of the list.
void wide_group(Rng& rng, std::size_t ni, std::size_t nj, std::vector<Vec3>& xi,
                InteractionList& list) {
  xi.resize(ni);
  for (auto& p : xi)
    p = {rng.uniform(0.35, 0.7), rng.uniform(0.35, 0.7), rng.uniform(0.35, 0.7)};
  list.clear();
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)},
             rng.uniform(0.5, 2.0));
}

void expect_within(std::span<const Vec3> got, std::span<const Vec3> ref, double tol,
                   const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale = std::max(1.0, ref[i].norm());
    EXPECT_NEAR(got[i].x, ref[i].x, tol * scale) << what << " target " << i;
    EXPECT_NEAR(got[i].y, ref[i].y, tol * scale) << what << " target " << i;
    EXPECT_NEAR(got[i].z, ref[i].z, tol * scale) << what << " target " << i;
  }
}

TEST(Cutoff, BoundaryValues) {
  EXPECT_DOUBLE_EQ(g_p3m(0.0), 1.0);
  EXPECT_NEAR(g_p3m(2.0), 0.0, 1e-14);
  EXPECT_DOUBLE_EQ(g_p3m(2.5), 0.0);
  EXPECT_DOUBLE_EQ(g_p3m(100.0), 0.0);
}

TEST(Cutoff, ContinuousAndSmoothAtBranchPoint) {
  // The zeta branch at xi = 1 must keep value and slope continuous.
  const double eps = 1e-7;
  EXPECT_NEAR(g_p3m(1.0 - eps), g_p3m(1.0 + eps), 1e-6);
  const double dl = (g_p3m(1.0) - g_p3m(1.0 - eps)) / eps;
  const double dr = (g_p3m(1.0 + eps) - g_p3m(1.0)) / eps;
  EXPECT_NEAR(dl, dr, 1e-5);
}

TEST(Cutoff, MonotonicallyDecreasing) {
  double prev = g_p3m(0.0);
  for (double xi = 0.01; xi <= 2.0; xi += 0.01) {
    const double g = g_p3m(xi);
    EXPECT_LE(g, prev + 1e-12) << "at xi = " << xi;
    prev = g;
  }
}

class CutoffVsQuadrature : public ::testing::TestWithParam<double> {};

TEST_P(CutoffVsQuadrature, Eq3MatchesS2S2ForceIntegral) {
  // Paper: eq. (3) is the complement of the force between two S2 spheres
  // evaluated by direct spatial integration.
  const double xi = GetParam();
  EXPECT_NEAR(g_p3m(xi), g_p3m_reference(xi), 2e-6) << "xi = " << xi;
}

INSTANTIATE_TEST_SUITE_P(Samples, CutoffVsQuadrature,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.8, 1.95));

TEST(Cutoff, S2FourierLimitsAndSeries) {
  EXPECT_NEAR(s2_fourier(1e-8), 1.0, 1e-12);
  // Series/exact crossover continuity (evaluate both branches at the
  // same point up to the last ulp around the threshold u = 0.2).
  EXPECT_NEAR(s2_fourier(0.2 - 1e-12), s2_fourier(0.2 + 1e-12), 1e-10);
  // Large-u falloff.
  EXPECT_LT(std::abs(s2_fourier(100.0)), 1e-3);
  // Known value check via independent evaluation at u = 2.
  const double u = 2.0;
  EXPECT_NEAR(s2_fourier(u), 12.0 * (2.0 - 2.0 * std::cos(u) - u * std::sin(u)) / 16.0, 1e-14);
}

TEST(Cutoff, EnclosedMassFraction) {
  EXPECT_DOUBLE_EQ(s2_enclosed_mass_fraction(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s2_enclosed_mass_fraction(1.0), 1.0);
  EXPECT_DOUBLE_EQ(s2_enclosed_mass_fraction(2.0), 1.0);
  EXPECT_NEAR(s2_enclosed_mass_fraction(0.5), 0.125 * (4 - 1.5), 1e-14);
  // Monotone.
  for (double s = 0.05; s < 1.0; s += 0.05)
    EXPECT_GT(s2_enclosed_mass_fraction(s + 0.05), s2_enclosed_mass_fraction(s));
}

TEST(Cutoff, PotentialCutoffConsistentWithForce) {
  // f = -d phi / dr with phi = -h(2r/rcut)/r and f = g(2r/rcut)/r^2
  // => g(xi) = h(xi) - xi h'(xi).
  for (double xi : {0.2, 0.5, 0.9, 1.1, 1.5, 1.9}) {
    const double d = 1e-5;
    const double hp = (h_p3m(xi + d) - h_p3m(xi - d)) / (2 * d);
    EXPECT_NEAR(g_p3m(xi), h_p3m(xi) - xi * hp, 1e-5) << "xi = " << xi;
  }
}

TEST(Cutoff, PotentialBoundaries) {
  EXPECT_DOUBLE_EQ(h_p3m(2.0), 0.0);
  EXPECT_DOUBLE_EQ(h_p3m(3.0), 0.0);
  EXPECT_NEAR(h_p3m(1e-6), 1.0, 1e-5);
}

TEST(Rsqrt, ApproximationReaches24Bits) {
  Rng rng(1);
  double max_rel = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = std::exp(rng.uniform(-20.0, 20.0));
    const double approx = approx_rsqrt(x);
    const double exact = 1.0 / std::sqrt(x);
    max_rel = std::max(max_rel, std::abs(approx - exact) / exact);
  }
  // Paper: 8-bit seed + third-order step -> 24-bit accuracy.
  EXPECT_LT(max_rel, std::pow(2.0, -24));
}

TEST(InteractionList, PadRoundsToFour) {
  InteractionList list;
  list.add({0, 0, 0}, 1.0);
  list.pad4();
  EXPECT_EQ(list.size(), 4u);
  EXPECT_EQ(list.m[1], 0.0);
  list.add({1, 1, 1}, 2.0);
  list.pad4();
  EXPECT_EQ(list.size(), 8u);
}

TEST(Kernels, ScalarMatchesAnalyticPair) {
  // One source at distance r: |a| = m g(2r/rcut) / r^2 (eps = 0 variant via
  // tiny eps).
  InteractionList list;
  list.add({0.3, 0.0, 0.0}, 2.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<Vec3> acc(1);
  const double rcut = 1.0;
  pp_kernel_scalar(xi, acc, list, rcut, 0.0);
  const double expected = 2.0 * g_p3m(0.6) / (0.3 * 0.3);
  EXPECT_NEAR(acc[0].x, expected, 1e-12);
  EXPECT_NEAR(acc[0].y, 0.0, 1e-15);
}

TEST(Kernels, PhantomMatchesScalar) {
  Rng rng(17);
  const std::size_t ni = 37, nj = 101;
  std::vector<Vec3> xi(ni);
  for (auto& p : xi) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  InteractionList list;
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(0.5, 2.0));

  const double rcut = 0.4, eps2 = 1e-6;
  std::vector<Vec3> a_scalar(ni), a_phantom(ni);
  pp_kernel_scalar(xi, a_scalar, list, rcut, eps2);
  list.pad4();
  pp_kernel_phantom(xi, a_phantom, list, rcut, eps2);
  // Error budget: the dispatched variant's contract (the approximate rsqrt,
  // and on avx512 float pair arithmetic), relative to the acceleration
  // magnitude (individual near-neighbor terms dominate).
  expect_within(a_phantom, a_scalar, variant_tolerance(phantom_dispatch()),
                phantom_variant_name(phantom_dispatch()));
}

TEST(Kernels, EveryPhantomVariantMatchesScalar) {
  // Deliberately ni % 4 != 0 and nj % 4 != 0: exercises the i-tail of the
  // blocked (SIMD) kernels and the padded j-tail in the same run.
  Rng rng(91);
  const std::size_t ni = 37, nj = 101;
  std::vector<Vec3> xi(ni);
  for (auto& p : xi) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  InteractionList list;
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(0.5, 2.0));

  const double rcut = 0.4, eps2 = 1e-6;
  std::vector<Vec3> a_scalar(ni);
  pp_kernel_scalar(xi, a_scalar, list, rcut, eps2);
  list.pad4();
  for (const PhantomVariant v :
       {PhantomVariant::kBasic, PhantomVariant::kBlockedAvx2, PhantomVariant::kBlockedAvx512}) {
    if (!phantom_variant_available(v)) continue;
    std::vector<Vec3> a(ni);
    pp_kernel_phantom_variant(v, xi, a, list, rcut, eps2);
    expect_within(a, a_scalar, variant_tolerance(v), phantom_variant_name(v));
  }
}

TEST(Kernels, TargetInITailAgreesWithTargetInBlock) {
  // avx2 hands the ni % 4 tail to the 1i x 4j basic loop, and avx512
  // shifts coordinates to xi[0] and culls each tile's sources to its box,
  // so a target's last bits depend on its slot in xi.  Slot changes stay
  // within the variant's budget: the same target evaluated as the tail of
  // a 5-target span and as the first slot of a 4-block must agree to twice
  // the per-variant tolerance against scalar.
  Rng rng(23);
  InteractionList list;
  for (std::size_t j = 0; j < 61; ++j)
    list.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(0.5, 2.0));
  list.pad4();
  const double rcut = 0.4, eps2 = 1e-6;
  for (const PhantomVariant v : kAllVariants) {
    if (!phantom_variant_available(v)) continue;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Vec3> others(4);
      for (auto& p : others) p = {rng.uniform(), rng.uniform(), rng.uniform()};
      const Vec3 t{rng.uniform(), rng.uniform(), rng.uniform()};

      std::vector<Vec3> block{t, others[0], others[1], others[2]};
      std::vector<Vec3> tail{others[0], others[1], others[2], others[3], t};
      std::vector<Vec3> a_block(block.size()), a_tail(tail.size());
      pp_kernel_phantom_variant(v, block, a_block, list, rcut, eps2);
      pp_kernel_phantom_variant(v, tail, a_tail, list, rcut, eps2);

      const Vec3& ab = a_block[0];
      const Vec3& at = a_tail[4];
      const double scale = std::max(1.0, ab.norm());
      const double tol = 2 * variant_tolerance(v) * scale;
      EXPECT_NEAR(at.x, ab.x, tol) << phantom_variant_name(v);
      EXPECT_NEAR(at.y, ab.y, tol) << phantom_variant_name(v);
      EXPECT_NEAR(at.z, ab.z, tol) << phantom_variant_name(v);
    }
  }
}

TEST(Kernels, PhantomDispatchResolvesToAvailableVariant) {
  const PhantomVariant d = phantom_dispatch();
  EXPECT_NE(d, PhantomVariant::kAuto);
  EXPECT_TRUE(phantom_variant_available(d));

  // Overrides resolve to something runnable (kAuto included), and the
  // original dispatch can be restored.
  set_phantom_variant(PhantomVariant::kBasic);
  EXPECT_EQ(phantom_dispatch(), PhantomVariant::kBasic);
  set_phantom_variant(PhantomVariant::kAuto);
  EXPECT_NE(phantom_dispatch(), PhantomVariant::kAuto);
  EXPECT_TRUE(phantom_variant_available(phantom_dispatch()));
  set_phantom_variant(d);
  EXPECT_EQ(phantom_dispatch(), d);
}

TEST(Kernels, SelfInteractionIsZero) {
  // A target coinciding with a source contributes exactly zero, also at
  // eps2 = 0 where the pair's rsqrt is infinite.
  const std::vector<Vec3> xi{{0.5, 0.5, 0.5}};
  InteractionList list;
  list.add({0.5, 0.5, 0.5}, 3.0);
  list.pad4();
  for (const double eps2 : {1e-8, 0.0}) {
    for (const PhantomVariant v : kAllVariants) {
      if (!phantom_variant_available(v)) continue;
      std::vector<Vec3> acc(1);
      pp_kernel_phantom_variant(v, xi, acc, list, 0.3, eps2);
      EXPECT_DOUBLE_EQ(acc[0].x, 0.0) << phantom_variant_name(v) << " eps2 " << eps2;
      EXPECT_DOUBLE_EQ(acc[0].y, 0.0) << phantom_variant_name(v) << " eps2 " << eps2;
      EXPECT_DOUBLE_EQ(acc[0].z, 0.0) << phantom_variant_name(v) << " eps2 " << eps2;
    }
  }
}

TEST(Kernels, SelfPairAtZeroSofteningLeavesOtherSourcesIntact) {
  // eps2 = 0 with every target also in the list (as the walk emits them):
  // each target's self pair drops out and the rest matches the scalar
  // kernel on the list without it.
  Rng rng(5);
  std::vector<Vec3> xi;
  InteractionList others;
  compact_group(rng, 7, 93, xi, others);
  InteractionList with_self = others;
  for (const Vec3& p : xi) with_self.add(p, 1.0);
  with_self.pad4();
  std::vector<Vec3> ref(xi.size());
  for (std::size_t i = 0; i < xi.size(); ++i) {
    InteractionList without_i = others;
    for (std::size_t k = 0; k < xi.size(); ++k)
      if (k != i) without_i.add(xi[k], 1.0);
    pp_kernel_scalar(std::span(xi).subspan(i, 1), std::span(ref).subspan(i, 1), without_i,
                     0.3, 0.0);
  }
  for (const PhantomVariant v : kAllVariants) {
    if (!phantom_variant_available(v)) continue;
    std::vector<Vec3> a(xi.size());
    pp_kernel_phantom_variant(v, xi, a, with_self, 0.3, 0.0);
    expect_within(a, ref, variant_tolerance(v), phantom_variant_name(v));
  }
}

TEST(Kernels, CutoffKillsDistantSources) {
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  InteractionList list;
  list.add({0.5, 0.0, 0.0}, 10.0);  // beyond rcut = 0.4
  list.pad4();
  std::vector<Vec3> acc(1);
  pp_kernel_phantom(xi, acc, list, 0.4, 1e-10);
  // The branchless clamp evaluates the polynomial at the edge xi = 2 where
  // it is analytically zero; floating point leaves an O(1e-16) residue.
  EXPECT_NEAR(acc[0].x, 0.0, 1e-12);
  std::vector<Vec3> acc2(1);
  pp_kernel_scalar(xi, acc2, list, 0.4, 1e-10);
  EXPECT_DOUBLE_EQ(acc2[0].x, 0.0);
}

TEST(Kernels, NewtonMatchesInverseSquare) {
  InteractionList list;
  list.add({0.0, 0.2, 0.0}, 4.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<Vec3> acc(1);
  pp_kernel_newton(xi, acc, list, 0.0);
  EXPECT_NEAR(acc[0].y, 4.0 / 0.04, 1e-9);
}

TEST(Kernels, NewtonSkipsExactSelfWithZeroSoftening) {
  const std::vector<Vec3> xi{{0.1, 0.2, 0.3}};
  InteractionList list;
  list.add({0.1, 0.2, 0.3}, 1.0);
  std::vector<Vec3> acc(1);
  pp_kernel_newton(xi, acc, list, 0.0);
  EXPECT_TRUE(std::isfinite(acc[0].x));
  EXPECT_DOUBLE_EQ(acc[0].x, 0.0);
}

TEST(Kernels, SofteningRegularizesCloseEncounters) {
  InteractionList list;
  list.add({1e-8, 0.0, 0.0}, 1.0);
  const std::vector<Vec3> xi{{0.0, 0.0, 0.0}};
  std::vector<Vec3> acc(1);
  const double eps2 = 1e-6;
  pp_kernel_scalar(xi, acc, list, 1.0, eps2);
  // Plummer-softened: |a| ~ m * dx / eps^3 for dx << eps.
  EXPECT_NEAR(acc[0].x, 1e-8 / std::pow(1e-6, 1.5), 1e-3 * acc[0].x + 1e-12);
}


TEST(Kernels, SinglePrecisionPhantomTracksScalar) {
  // The mixed-precision avx512 kernel on a compact group, as the traversal
  // provides (targets share a cell).
  if (!phantom_variant_available(PhantomVariant::kBlockedAvx512)) GTEST_SKIP();
  Rng rng(31);
  std::vector<Vec3> xi;
  InteractionList list;
  compact_group(rng, 64, 512, xi, list);
  const double rcut = 0.3, eps2 = 1e-6;

  std::vector<Vec3> ref(xi.size()), sp(xi.size());
  pp_kernel_scalar(xi, ref, list, rcut, eps2);
  list.pad4();
  pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, sp, list, rcut, eps2);
  expect_within(sp, ref, 5e-4, "avx512");
}

TEST(Kernels, SinglePrecisionHandlesSelfAndPadding) {
  if (!phantom_variant_available(PhantomVariant::kBlockedAvx512)) GTEST_SKIP();
  const std::vector<Vec3> xi{{0.5, 0.5, 0.5}};
  InteractionList list;
  list.add({0.5, 0.5, 0.5}, 3.0);  // self
  list.pad4();                      // far-away massless padding
  std::vector<Vec3> acc(1);
  pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, acc, list, 0.3, 1e-8);
  EXPECT_NEAR(acc[0].norm(), 0.0, 1e-10);
}

class MixedKernelShape
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MixedKernelShape, TracksScalarOnCompactGroups) {
  // Every tile and block edge of the avx512 kernel: ni % 4 tails, nj not a
  // multiple of 16, and lists that cross one or more 512-entry j-blocks.
  if (!phantom_variant_available(PhantomVariant::kBlockedAvx512)) GTEST_SKIP();
  const auto [ni, nj] = GetParam();
  Rng rng(1000 + ni * 7919 + nj);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Vec3> xi;
    InteractionList list;
    compact_group(rng, ni, nj, xi, list);
    std::vector<Vec3> ref(ni), got(ni);
    pp_kernel_scalar(xi, ref, list, 0.3, 1e-6);
    list.pad4();
    pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, got, list, 0.3, 1e-6);
    expect_within(got, ref, variant_tolerance(PhantomVariant::kBlockedAvx512), "avx512");
  }
}

TEST_P(MixedKernelShape, TracksScalarOnWideGroups) {
  // Targets spread over a box wider than rcut: every tile culls a different
  // part of the list, so the kept blocks, their padding and the tail tile
  // all differ from one tile to the next.
  if (!phantom_variant_available(PhantomVariant::kBlockedAvx512)) GTEST_SKIP();
  const auto [ni, nj] = GetParam();
  Rng rng(2000 + ni * 7919 + nj);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Vec3> xi;
    InteractionList list;
    wide_group(rng, ni, nj, xi, list);
    std::vector<Vec3> ref(ni), got(ni);
    pp_kernel_scalar(xi, ref, list, 0.3, 1e-6);
    list.pad4();
    pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, got, list, 0.3, 1e-6);
    expect_within(got, ref, variant_tolerance(PhantomVariant::kBlockedAvx512), "avx512");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Edges, MixedKernelShape,
    ::testing::Values(std::tuple{1, 977}, std::tuple{2, 977}, std::tuple{3, 977},
                      std::tuple{5, 977}, std::tuple{19, 977}, std::tuple{37, 977},
                      std::tuple{4, 20}, std::tuple{6, 509}, std::tuple{8, 512},
                      std::tuple{7, 513}, std::tuple{9, 1100}, std::tuple{5, 1536},
                      std::tuple{43, 977}));

TEST(Kernels, MixedKernelResultIsSlotInvariant) {
  // With xi[0] fixed and a list the cull keeps whole (rcut 1.0 covers the
  // whole compact group), avx512 gives a target bitwise the same
  // acceleration in every later slot and for every ni % 4: the tail runs
  // the block code.  At rcut 0.3 a tile keeps the sources within the cutoff
  // of its own box, so the target's live pairs can sit in other lanes from
  // one slot to the next: the results then agree to twice the tolerance.
  if (!phantom_variant_available(PhantomVariant::kBlockedAvx512)) GTEST_SKIP();
  Rng rng(77);
  std::vector<Vec3> pool;
  InteractionList list;
  compact_group(rng, 12, 700, pool, list);
  list.pad4();
  const Vec3 t = pool.back();
  for (const double rcut : {1.0, 0.3}) {
    std::vector<Vec3> first;
    for (std::size_t ni = 2; ni <= 11; ++ni) {
      for (std::size_t slot = 1; slot < ni; ++slot) {
        std::vector<Vec3> xi(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(ni));
        xi[slot] = t;
        std::vector<Vec3> a(ni);
        const std::uint64_t pairs =
            pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, a, list, rcut, 1e-6);
        if (first.empty()) first.push_back(a[slot]);
        if (rcut == 1.0) {
          EXPECT_EQ(pairs, ni * 700) << "ni " << ni;
          EXPECT_EQ(a[slot].x, first[0].x) << "ni " << ni << " slot " << slot;
          EXPECT_EQ(a[slot].y, first[0].y) << "ni " << ni << " slot " << slot;
          EXPECT_EQ(a[slot].z, first[0].z) << "ni " << ni << " slot " << slot;
        } else {
          const double tol = 2 * variant_tolerance(PhantomVariant::kBlockedAvx512) *
                             std::max(1.0, first[0].norm());
          EXPECT_NEAR(a[slot].x, first[0].x, tol) << "ni " << ni << " slot " << slot;
          EXPECT_NEAR(a[slot].y, first[0].y, tol) << "ni " << ni << " slot " << slot;
          EXPECT_NEAR(a[slot].z, first[0].z, tol) << "ni " << ni << " slot " << slot;
        }
      }
    }
  }
}

/// Distance from p to the bounding box of `pts` (0 inside).
double box_distance(const std::vector<Vec3>& pts, const Vec3& p) {
  Vec3 lo = pts[0], hi = pts[0];
  for (const Vec3& q : pts) {
    lo = {std::min(lo.x, q.x), std::min(lo.y, q.y), std::min(lo.z, q.z)};
    hi = {std::max(hi.x, q.x), std::max(hi.y, q.y), std::max(hi.z, q.z)};
  }
  const Vec3 d{std::max({lo.x - p.x, p.x - hi.x, 0.0}), std::max({lo.y - p.y, p.y - hi.y, 0.0}),
               std::max({lo.z - p.z, p.z - hi.z, 0.0})};
  return d.norm();
}

TEST(Kernels, SourcesPastTheCutoffChangeNoBit) {
  // Sources farther than 1.001 rcut from the group's box are past the
  // cutoff of every target and of every tile's box.  Interleaved among the
  // live sources of one j-block (<= 512 entries) they change no bit of any
  // acceleration: each tile culls them before its lanes are filled.
  if (!phantom_variant_available(PhantomVariant::kBlockedAvx512)) GTEST_SKIP();
  const double rcut = 0.3, eps2 = 1e-6;
  Rng rng(61);
  for (const std::size_t ni : {1, 4, 6, 37}) {
    std::vector<Vec3> xi;
    InteractionList live;
    compact_group(rng, ni, 230, xi, live);
    InteractionList mixed;
    for (std::size_t j = 0; j < live.size(); ++j) {
      mixed.add({live.x[j], live.y[j], live.z[j]}, live.m[j]);
      Vec3 far;
      do {
        far = {rng.uniform(-0.2, 1.2), rng.uniform(-0.3, 1.0), rng.uniform(0.0, 1.4)};
      } while (box_distance(xi, far) <= 1.001 * rcut);
      mixed.add(far, rng.uniform(0.5, 2.0));
    }
    ASSERT_LE(mixed.size(), 512u);
    live.pad4();
    mixed.pad4();
    std::vector<Vec3> a_live(ni), a_mixed(ni);
    const std::uint64_t p_live =
        pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, a_live, live, rcut, eps2);
    const std::uint64_t p_mixed =
        pp_kernel_phantom_variant(PhantomVariant::kBlockedAvx512, xi, a_mixed, mixed, rcut, eps2);
    EXPECT_EQ(p_mixed, p_live) << "ni " << ni;
    for (std::size_t i = 0; i < ni; ++i) {
      EXPECT_EQ(a_mixed[i].x, a_live[i].x) << "ni " << ni << " target " << i;
      EXPECT_EQ(a_mixed[i].y, a_live[i].y) << "ni " << ni << " target " << i;
      EXPECT_EQ(a_mixed[i].z, a_live[i].z) << "ni " << ni << " target " << i;
    }
  }
}

TEST(Kernels, CullKeepsEveryLivePair) {
  // One target against sources at r = rcut (1 +- 1e-4): the kernel must
  // run at least every pair with r^2 + eps^2 < rcut^2 in double.  The
  // double variants run every pair of the padded list.
  const double rcut = 0.3, eps2 = 1e-8;
  Rng rng(43);
  for (const PhantomVariant v : kAllVariants) {
    if (!phantom_variant_available(v)) continue;
    for (int trial = 0; trial < 64; ++trial) {
      const std::vector<Vec3> xi{{rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                                  rng.uniform(0.3, 0.7)}};
      InteractionList list;
      std::uint64_t live = 0;
      for (int j = 0; j < 40; ++j) {
        Vec3 dir{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        dir = dir * (1.0 / dir.norm());
        const double r = rcut * (j % 2 == 0 ? 1.0 - 1e-4 : 1.0 + 1e-4);
        const Vec3 src = xi[0] + dir * r;
        const Vec3 d = src - xi[0];
        if (d.norm2() + eps2 < rcut * rcut) ++live;
        list.add(src, 1.0);
      }
      ASSERT_GT(live, 0u);
      list.pad4();
      std::vector<Vec3> acc(1);
      const std::uint64_t pairs = pp_kernel_phantom_variant(v, xi, acc, list, rcut, eps2);
      EXPECT_GE(pairs, live) << phantom_variant_name(v) << " trial " << trial;
      EXPECT_LE(pairs, list.size()) << phantom_variant_name(v);
    }
  }
}

}  // namespace
}  // namespace greem::pp
