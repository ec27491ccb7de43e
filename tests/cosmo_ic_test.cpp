// Cosmology background and initial-condition tests: Friedmann factors,
// growth function limits, Gaussian field statistics, Zel'dovich
// consistency (delta = -div psi), and spectrum recovery.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "analysis/power_measure.hpp"
#include "cosmo/cosmology.hpp"
#include "fft/fft3d.hpp"
#include "ic/gaussian_field.hpp"
#include "ic/powerspec.hpp"
#include "ic/zeldovich.hpp"
#include "util/stats.hpp"

namespace greem {
namespace {

TEST(Cosmology, EdsBasics) {
  const auto c = cosmo::Cosmology::eds_unit_mass();
  EXPECT_DOUBLE_EQ(c.omega_k(), 0.0);
  EXPECT_NEAR(c.E(1.0), 1.0, 1e-12);
  EXPECT_NEAR(c.E(0.25), std::sqrt(64.0), 1e-12);  // a^-3/2 = 8
  // Unit box mass: rho_mean = 1.
  EXPECT_NEAR(c.mean_density(), 1.0, 1e-12);
}

TEST(Cosmology, EdsGrowthFactorIsScaleFactor) {
  const auto c = cosmo::Cosmology::eds_unit_mass();
  for (double a : {0.05, 0.1, 0.3, 0.7, 1.0}) {
    EXPECT_NEAR(c.growth_factor(a), a, 2e-3 * a) << "a = " << a;
  }
  EXPECT_NEAR(c.growth_rate(0.3), 1.0, 1e-2);
}

TEST(Cosmology, ConcordanceGrowthSuppressedByLambda) {
  const auto c = cosmo::Cosmology::concordance_unit_mass();
  EXPECT_NEAR(c.growth_factor(1.0), 1.0, 1e-12);
  // Lambda suppresses late growth: D(a) > a... actually D(a)/a > 1 for
  // a < 1 under the D(1) = 1 normalization.
  EXPECT_GT(c.growth_factor(0.5), 0.5);
  EXPECT_LT(c.growth_rate(1.0), 1.0);  // f ~ Omega_m(a)^0.55 < 1
  EXPECT_NEAR(c.growth_rate(1.0), std::pow(0.272, 0.55), 0.03);
}

TEST(Cosmology, KickDriftFactorsMatchEdsAnalytics) {
  const auto c = cosmo::Cosmology::eds_unit_mass();
  // EdS: H = H0 a^-3/2; kick = Int da/(a^2 H) = [2/H0 * (-a^-1/2)']...
  // Int a^(-1/2) da / H0 = 2(sqrt(a1)-sqrt(a0))/H0.
  const double a0 = 0.2, a1 = 0.4;
  EXPECT_NEAR(c.kick_factor(a0, a1), 2.0 * (std::sqrt(a1) - std::sqrt(a0)) / c.H0, 1e-6);
  // drift = Int da/(a^3 H) = Int a^-3/2 da / H0 = 2(a0^-1/2 - a1^-1/2)/H0.
  EXPECT_NEAR(c.drift_factor(a0, a1), 2.0 * (1 / std::sqrt(a0) - 1 / std::sqrt(a1)) / c.H0,
              1e-6);
}

TEST(Cosmology, RedshiftConversions) {
  EXPECT_DOUBLE_EQ(cosmo::Cosmology::a_of_z(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cosmo::Cosmology::a_of_z(399.0), 1.0 / 400.0);
  EXPECT_NEAR(cosmo::Cosmology::z_of_a(1.0 / 31.0), 30.0, 1e-12);
}

TEST(PowerSpec, ShapesBehave) {
  const ic::PowerLaw pl(2.0, 1.0);
  EXPECT_DOUBLE_EQ(pl(3.0), 6.0);
  const ic::CutoffPowerLaw cut(2.0, 1.0, 10.0);
  EXPECT_NEAR(cut(1.0), 2.0 * std::exp(-0.01), 1e-12);
  EXPECT_LT(cut(100.0), pl(100.0) * 1e-10);  // strong damping above k_cut
  EXPECT_DOUBLE_EQ(pl(0.0), 0.0);
}

TEST(PowerSpec, VarianceIntegralMatchesAnalytic) {
  // P = A k^0 (white noise): sigma^2 = A (kmax^3 - kmin^3) / (6 pi^2).
  const ic::PowerLaw white(3.0, 0.0);
  const double kmin = 1.0, kmax = 10.0;
  const double expect =
      3.0 * (kmax * kmax * kmax - kmin * kmin * kmin) / (6.0 * std::numbers::pi * std::numbers::pi);
  EXPECT_NEAR(ic::field_variance(white, kmin, kmax), expect, 1e-6 * expect);
}

TEST(GaussianField, HasZeroMeanAndExpectedVariance) {
  const std::size_t n = 32;
  const ic::PowerLaw ps(1e-4, 0.0);
  const auto delta = ic::gaussian_random_field(n, ps, 99);
  double mean = 0;
  for (double v : delta) mean += v;
  mean /= static_cast<double>(delta.size());
  EXPECT_NEAR(mean, 0.0, 1e-10);  // k = 0 mode zeroed exactly

  double var = 0;
  for (double v : delta) var += v * v;
  var /= static_cast<double>(delta.size());
  // Variance = sum over modes of P(k): all n^3-1 modes carry P = 1e-4.
  const double expect = 1e-4 * static_cast<double>(n * n * n - 1);
  EXPECT_NEAR(var, expect, 0.05 * expect);
}

TEST(GaussianField, ReproducibleAndSeedDependent) {
  const ic::PowerLaw ps(1e-4, 0.0);
  const auto a = ic::gaussian_random_field(8, ps, 1);
  const auto b = ic::gaussian_random_field(8, ps, 1);
  const auto c = ic::gaussian_random_field(8, ps, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// Hard band limit: no power at or above k_max modes, so the spectral
// derivative identity is exact (Nyquist modes carry no content).
class BandLimited final : public ic::PowerSpectrum {
 public:
  BandLimited(double amp, double kmax_modes) : amp_(amp), kmax_(kmax_modes) {}
  double operator()(double k) const override {
    return k > 0 && k < kmax_ * 2.0 * std::numbers::pi ? amp_ : 0.0;
  }

 private:
  double amp_, kmax_;
};

TEST(Displacement, DivergenceRecoversNegativeDelta) {
  // delta = -div psi must hold mode by mode; verify in real space with a
  // spectral derivative cross-check on a band-limited field.
  const std::size_t n = 16;
  const BandLimited ps(1e-3, 6.0);
  const auto delta = ic::gaussian_random_field(n, ps, 5);
  const auto psi = ic::displacement_field(delta, n);

  // Spectral divergence of psi.
  fft::Fft3dR2C fft(n);
  std::vector<fft::Complex> div(fft.spectrum_size(), fft::Complex{});
  for (int axis = 0; axis < 3; ++axis) {
    const auto pk = fft.forward(psi[static_cast<std::size_t>(axis)]);
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < fft.hx(); ++x) {
          const long k[3] = {fft::wavenumber(x, n), fft::wavenumber(y, n),
                             fft::wavenumber(z, n)};
          const double kc = 2.0 * std::numbers::pi * static_cast<double>(k[axis]);
          div[fft.index(x, y, z)] += fft::Complex(0.0, kc) * pk[fft.index(x, y, z)];
        }
  }
  const auto div_real = fft.inverse(std::move(div));
  for (std::size_t i = 0; i < delta.size(); ++i)
    EXPECT_NEAR(-div_real[i], delta[i], 1e-8 + 1e-6 * std::abs(delta[i]));
}

TEST(Zeldovich, SmallAmplitudeKeepsGridTopology) {
  ic::ZeldovichParams zp;
  zp.n_per_dim = 8;
  zp.a_start = 0.02;
  const ic::PowerLaw ps(1e-8, 0.0);
  const auto ics = ic::zeldovich_ics(zp, ps, cosmo::Cosmology::eds_unit_mass());
  EXPECT_EQ(ics.pos.size(), 512u);
  EXPECT_NEAR(ics.particle_mass, 1.0 / 512.0, 1e-15);
  EXPECT_LT(ics.rms_displacement_spacings, 0.1);
  for (const auto& p : ics.pos) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 1.0);
  }
}

TEST(Zeldovich, VelocitiesFollowGrowingMode) {
  // p = a^2 H f psi: for EdS f = 1, so mom / displacement = a^2 H(a).
  ic::ZeldovichParams zp;
  zp.n_per_dim = 8;
  zp.a_start = 0.1;
  const auto c = cosmo::Cosmology::eds_unit_mass();
  const ic::PowerLaw ps(1e-8, 0.0);
  const auto ics = ic::zeldovich_ics(zp, ps, c);
  const double vfac = zp.a_start * zp.a_start * c.hubble(zp.a_start);
  // Find a particle with non-negligible displacement and check the ratio.
  const std::size_t n = zp.n_per_dim;
  std::size_t checked = 0;
  for (std::size_t iz = 0; iz < n && checked < 20; ++iz)
    for (std::size_t iy = 0; iy < n && checked < 20; ++iy)
      for (std::size_t ix = 0; ix < n && checked < 20; ++ix) {
        const std::size_t cell = (iz * n + iy) * n + ix;
        const Vec3 q{(ix + 0.5) / static_cast<double>(n), (iy + 0.5) / static_cast<double>(n),
                     (iz + 0.5) / static_cast<double>(n)};
        const Vec3 d = min_image(q, ics.pos[cell]);
        if (d.norm() < 1e-8) continue;
        EXPECT_NEAR(ics.mom[cell].x, vfac * d.x, 0.02 * std::abs(vfac * d.x) + 1e-12);
        ++checked;
      }
  EXPECT_GT(checked, 0u);
}

TEST(Zeldovich, MeasuredSpectrumMatchesInput) {
  // Close the loop: generate ICs from a known P(k), measure it back.
  ic::ZeldovichParams zp;
  zp.n_per_dim = 32;
  zp.a_start = 0.02;
  zp.seed = 11;
  const double amp = 1e-6;
  const ic::PowerLaw ps(amp, 0.0);
  const auto ics = ic::zeldovich_ics(zp, ps, cosmo::Cosmology::eds_unit_mass());

  analysis::PowerMeasureParams mp;
  mp.n_mesh = 32;
  // Grid-based ICs have no Poisson shot noise (the grid suppresses it);
  // subtracting 1/N would swamp the small input signal.
  mp.subtract_shot_noise = false;
  const auto bins = analysis::measure_power(ics.pos, mp);
  // Compare over well-sampled intermediate shells (discreteness and
  // Zel'dovich nonlinearity affect the extremes).
  double ratio_sum = 0;
  int count = 0;
  for (const auto& b : bins) {
    const double kk = b.k / (2.0 * std::numbers::pi);
    if (kk < 3 || kk > 8) continue;
    ratio_sum += b.power / amp;
    ++count;
  }
  ASSERT_GT(count, 0);
  EXPECT_NEAR(ratio_sum / count, 1.0, 0.25);
}


TEST(Lpt2, EqualsZeldovichForSinglePlaneWave) {
  // For a 1-D plane wave phi,xx is the only nonzero second derivative, so
  // delta2 = 0 and the 2LPT correction vanishes identically.
  const std::size_t n = 16;

  struct OneMode final : ic::PowerSpectrum {
    double operator()(double k) const override {
      // Power only in the |k| = 3 shell.
      const double kk = k / (2.0 * std::numbers::pi);
      return (kk > 2.5 && kk < 3.5) ? 1e-6 : 0.0;
    }
  };
  // A shell is not a single wave; instead build truly 1-D content by
  // checking that the 2LPT correction is *small* compared to psi1 for a
  // field whose transverse derivatives nearly vanish is awkward -- use
  // the exact statement instead: for a band-limited field the correction
  // is second order, so halving the amplitude quarters it (next test).
  // Here we check the degenerate amplitude -> zero limit.
  ic::ZeldovichParams zp;
  zp.n_per_dim = n;
  zp.a_start = 0.1;
  const ic::PowerLaw zero(0.0, 0.0);
  const auto c = cosmo::Cosmology::eds_unit_mass();
  const auto z1 = ic::zeldovich_ics(zp, zero, c);
  const auto l1 = ic::lpt2_ics(zp, zero, c);
  for (std::size_t i = 0; i < z1.pos.size(); ++i) {
    EXPECT_EQ(z1.pos[i], l1.pos[i]);
    EXPECT_EQ(l1.mom[i], Vec3{});
  }
}

TEST(Lpt2, FirstOrderIsTheZeldovichDisplacementBitwise) {
  // lpt2_displacements transforms delta once for psi1 and the second
  // derivatives; psi1 must be displacement_field's, bit for bit.
  const std::size_t n = 16;
  const ic::CutoffPowerLaw ps(1e-6, 0.0, 5.0 * 2.0 * std::numbers::pi);
  const auto delta = ic::gaussian_random_field(n, ps, 11);
  const auto psi = ic::displacement_field(delta, n);
  const auto lpt = ic::lpt2_displacements(delta, n);
  for (std::size_t axis = 0; axis < 3; ++axis) {
    ASSERT_EQ(lpt.psi1[axis].size(), psi[axis].size());
    EXPECT_EQ(std::memcmp(lpt.psi1[axis].data(), psi[axis].data(),
                          psi[axis].size() * sizeof(double)),
              0)
        << "axis " << axis;
    EXPECT_EQ(lpt.psi2[axis].size(), psi[axis].size());
  }
}

TEST(Lpt2, CorrectionIsSecondOrderInAmplitude) {
  // psi1 ~ sqrt(P), psi2 ~ P: scaling P by 16 scales the 2LPT-Zel'dovich
  // position difference by 16 and the Zel'dovich displacement by 4.
  ic::ZeldovichParams zp;
  zp.n_per_dim = 16;
  zp.a_start = 0.1;
  zp.seed = 7;
  const auto c = cosmo::Cosmology::eds_unit_mass();

  auto correction_rms = [&](double amp) {
    const ic::CutoffPowerLaw ps(amp, 0.0, 5.0 * 2.0 * std::numbers::pi);
    const auto z = ic::zeldovich_ics(zp, ps, c);
    const auto l = ic::lpt2_ics(zp, ps, c);
    double sum = 0;
    for (std::size_t i = 0; i < z.pos.size(); ++i)
      sum += min_image(z.pos[i], l.pos[i]).norm2();
    return std::sqrt(sum / static_cast<double>(z.pos.size()));
  };
  const double c1 = correction_rms(1e-8);
  const double c16 = correction_rms(16e-8);
  ASSERT_GT(c1, 0.0);
  EXPECT_NEAR(c16 / c1, 16.0, 0.5);
}

TEST(Lpt2, MomentaCarrySecondOrderGrowthRate) {
  // EdS: f1 = 1, f2 = 2.  The momentum of the 2LPT part must be twice the
  // naive first-order velocity factor applied to the same displacement.
  ic::ZeldovichParams zp;
  zp.n_per_dim = 16;
  zp.a_start = 0.05;
  zp.seed = 9;
  const auto c = cosmo::Cosmology::eds_unit_mass();
  const ic::CutoffPowerLaw ps(1e-7, 0.0, 5.0 * 2.0 * std::numbers::pi);
  const auto z = ic::zeldovich_ics(zp, ps, c);
  const auto l = ic::lpt2_ics(zp, ps, c);
  const double vfac = zp.a_start * zp.a_start * c.hubble(zp.a_start);  // f1 = 1

  // Decompose: mom_l = vfac*(psi1 + 2 * psi2c) while the position offset
  // is psi1 + psi2c; with mom_z = vfac*psi1 it follows
  //   mom_l - mom_z = 2 * vfac * (x_l - x_z).
  double worst = 0;
  for (std::size_t i = 0; i < z.pos.size(); ++i) {
    const Vec3 dmom = l.mom[i] - z.mom[i];
    const Vec3 dx = min_image(z.pos[i], l.pos[i]);
    worst = std::max(worst, (dmom - dx * (2.0 * vfac)).norm());
  }
  EXPECT_LT(worst, 1e-10);
}


TEST(Cosmology, ConcordanceFriedmannIdentities) {
  const auto c = cosmo::Cosmology::concordance_unit_mass();
  // Flat: E(a)^2 a^3 -> Omega_m / 1 at small a (matter domination).
  EXPECT_NEAR(c.E(1e-3) * c.E(1e-3) * 1e-9, c.omega_m, 1e-5);
  // Late times approach the de Sitter floor.
  EXPECT_NEAR(c.E(100.0), std::sqrt(c.omega_l), 1e-3);
  // Unit box mass convention: mean density integrates to 1.
  EXPECT_NEAR(c.mean_density(), 1.0, 1e-12);
  // Kick/drift integrals are positive, monotone in interval length.
  EXPECT_GT(c.kick_factor(0.1, 0.2), c.kick_factor(0.1, 0.15));
  EXPECT_GT(c.drift_factor(0.1, 0.2), 0.0);
}

}  // namespace
}  // namespace greem
