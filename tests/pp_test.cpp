// Tests of the force-split functions and the PP kernels: paper eq. (3)
// against direct numerical integration of the S2-S2 interaction, the
// k-space shape factor, the approximate rsqrt accuracy, and the phantom
// kernel against the exact scalar kernel.

#include <gtest/gtest.h>

#include <cmath>

#include "pp/cutoff.hpp"
#include "pp/kernels.hpp"
#include "util/rng.hpp"

namespace greem::pp {
namespace {

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
  for (std::size_t i = 0; i < ni; ++i) {
    // Error budget: the ~24-bit approximate rsqrt, relative to the
    // acceleration magnitude (individual near-neighbor terms dominate).
    const double scale = std::max(1.0, a_scalar[i].norm());
    EXPECT_NEAR(a_phantom[i].x, a_scalar[i].x, 5e-7 * scale);
    EXPECT_NEAR(a_phantom[i].y, a_scalar[i].y, 5e-7 * scale);
    EXPECT_NEAR(a_phantom[i].z, a_scalar[i].z, 5e-7 * scale);
  }
}

TEST(Kernels, EveryPhantomVariantMatchesScalar) {
  // Deliberately ni % 4 != 0 and nj % 4 != 0: exercises the i-tail of the
  // blocked kernels and the padded j-tail in the same run.
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
       {PhantomVariant::kBasic, PhantomVariant::kBlocked, PhantomVariant::kBlockedAvx2,
        PhantomVariant::kBlockedAvx512}) {
    if (!phantom_variant_available(v)) continue;
    std::vector<Vec3> a(ni);
    pp_kernel_phantom_variant(v, xi, a, list, rcut, eps2);
    for (std::size_t i = 0; i < ni; ++i) {
      const double scale = std::max(1.0, a_scalar[i].norm());
      EXPECT_NEAR(a[i].x, a_scalar[i].x, 5e-7 * scale) << phantom_variant_name(v);
      EXPECT_NEAR(a[i].y, a_scalar[i].y, 5e-7 * scale) << phantom_variant_name(v);
      EXPECT_NEAR(a[i].z, a_scalar[i].z, 5e-7 * scale) << phantom_variant_name(v);
    }
  }
}

TEST(Kernels, TargetInITailAgreesWithTargetInBlock) {
  // The blocked variants hand the ni % 4 tail to the 1i x 4j basic loop,
  // so a target's last bits depend on its slot in xi.  Slot changes stay
  // within the rsqrt budget: the same target evaluated as the tail of a
  // 5-target span and as the first slot of a 4-block must agree to twice
  // the per-variant tolerance against scalar.
  Rng rng(23);
  InteractionList list;
  for (std::size_t j = 0; j < 61; ++j)
    list.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.uniform(0.5, 2.0));
  list.pad4();
  const double rcut = 0.4, eps2 = 1e-6;
  for (const PhantomVariant v :
       {PhantomVariant::kScalar, PhantomVariant::kBasic, PhantomVariant::kBlocked,
        PhantomVariant::kBlockedAvx2, PhantomVariant::kBlockedAvx512}) {
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
      EXPECT_NEAR(at.x, ab.x, 2 * 5e-7 * scale) << phantom_variant_name(v);
      EXPECT_NEAR(at.y, ab.y, 2 * 5e-7 * scale) << phantom_variant_name(v);
      EXPECT_NEAR(at.z, ab.z, 2 * 5e-7 * scale) << phantom_variant_name(v);
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
  const std::vector<Vec3> xi{{0.5, 0.5, 0.5}};
  InteractionList list;
  list.add({0.5, 0.5, 0.5}, 3.0);
  list.pad4();
  std::vector<Vec3> acc(1);
  pp_kernel_phantom(xi, acc, list, 0.3, 1e-8);
  EXPECT_DOUBLE_EQ(acc[0].x, 0.0);
  EXPECT_DOUBLE_EQ(acc[0].y, 0.0);
  EXPECT_DOUBLE_EQ(acc[0].z, 0.0);
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
  Rng rng(31);
  const std::size_t ni = 64, nj = 512;
  std::vector<Vec3> xi(ni);
  // A compact group, as the traversal provides (targets share a cell).
  for (auto& p : xi)
    p = {0.4 + rng.uniform(0.0, 0.05), 0.3 + rng.uniform(0.0, 0.05),
         0.6 + rng.uniform(0.0, 0.05)};
  InteractionList list;
  for (std::size_t j = 0; j < nj; ++j)
    list.add({rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.6), rng.uniform(0.4, 0.9)},
             rng.uniform(0.5, 2.0));
  const double rcut = 0.3, eps2 = 1e-6;

  std::vector<Vec3> ref(ni), sp(ni);
  pp_kernel_scalar(xi, ref, list, rcut, eps2);
  list.pad4();
  pp_kernel_phantom_sp(xi, sp, list, rcut, eps2);
  for (std::size_t i = 0; i < ni; ++i) {
    const double scale = std::max(1.0, ref[i].norm());
    EXPECT_NEAR(sp[i].x, ref[i].x, 5e-4 * scale);
    EXPECT_NEAR(sp[i].y, ref[i].y, 5e-4 * scale);
    EXPECT_NEAR(sp[i].z, ref[i].z, 5e-4 * scale);
  }
}

TEST(Kernels, SinglePrecisionHandlesSelfAndPadding) {
  const std::vector<Vec3> xi{{0.5, 0.5, 0.5}};
  InteractionList list;
  list.add({0.5, 0.5, 0.5}, 3.0);  // self
  list.pad4();                      // far-away massless padding
  std::vector<Vec3> acc(1);
  pp_kernel_phantom_sp(xi, acc, list, 0.3, 1e-8);
  EXPECT_NEAR(acc[0].norm(), 0.0, 1e-10);
}

}  // namespace
}  // namespace greem::pp
