// FFT substrate tests: 1-D against a direct DFT, 3-D roundtrips and
// analytic modes, and the slab-parallel transform against the serial one.

#include <gtest/gtest.h>

#include <complex>
#include <numbers>

#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "fft/slab_fft.hpp"
#include "parx/runtime.hpp"
#include "util/rng.hpp"

namespace greem::fft {
namespace {

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex s{};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(j * k) / static_cast<double>(n);
      s += x[j] * Complex{std::cos(ang), std::sin(ang)};
    }
    out[k] = s;
  }
  return out;
}

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto ref = naive_dft(x);
  auto got = x;
  Fft1d plan(n);
  plan.forward(got.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), ref[k].real(), 1e-9 * static_cast<double>(n));
    EXPECT_NEAR(got[k].imag(), ref[k].imag(), 1e-9 * static_cast<double>(n));
  }
}

TEST_P(Fft1dSizes, InverseRoundtrips) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<Complex> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  auto y = x;
  Fft1d plan(n);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Fft1dSizes,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 16, 64, 256));

TEST(Fft1d, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft1d(12), std::invalid_argument);
  EXPECT_THROW(Fft1d(0), std::invalid_argument);
}

TEST(NextPow2, RoundsUpAndThrowsWhenNothingFits) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(16), 16u);
  EXPECT_EQ(next_pow2(17), 32u);
  constexpr std::size_t top = ~(~std::size_t{0} >> 1);
  EXPECT_EQ(next_pow2(top), top);
  EXPECT_THROW(next_pow2(top + 1), std::overflow_error);
  // A config value of -1 cast to size_t once made this loop forever.
  EXPECT_THROW(next_pow2(static_cast<std::size_t>(-1L)), std::overflow_error);
}

TEST(Fft1d, StridedMatchesContiguous) {
  const std::size_t n = 32, stride = 5;
  Rng rng(3);
  std::vector<Complex> packed(n), strided(n * stride);
  for (std::size_t i = 0; i < n; ++i) {
    packed[i] = {rng.normal(), rng.normal()};
    strided[i * stride] = packed[i];
  }
  Fft1d plan(n);
  plan.forward(packed.data());
  plan.forward_strided(strided.data(), stride);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(strided[i * stride].real(), packed[i].real(), 1e-10);
    EXPECT_NEAR(strided[i * stride].imag(), packed[i].imag(), 1e-10);
  }
}

TEST(Fft3d, SingleModeTransformsToDelta) {
  const std::size_t n = 16;
  Fft3d fft(n);
  // f(x) = cos(2 pi (2x + 3y + z)) -> peaks at (2,3,1) and (-2,-3,-1).
  std::vector<double> f(n * n * n);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        f[fft.index(x, y, z)] = std::cos(2.0 * std::numbers::pi *
                                         (2.0 * x + 3.0 * y + 1.0 * z) / static_cast<double>(n));
  auto fk = fft.forward_real(f);
  const double ncells = static_cast<double>(n * n * n);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double expected =
            ((x == 2 && y == 3 && z == 1) || (x == n - 2 && y == n - 3 && z == n - 1))
                ? ncells / 2
                : 0.0;
        EXPECT_NEAR(fk[fft.index(x, y, z)].real(), expected, 1e-7);
        EXPECT_NEAR(fk[fft.index(x, y, z)].imag(), 0.0, 1e-7);
      }
}

TEST(Fft3d, RoundtripRecoversField) {
  const std::size_t n = 8;
  Fft3d fft(n);
  Rng rng(9);
  std::vector<double> f(n * n * n);
  for (auto& v : f) v = rng.normal();
  auto fk = fft.forward_real(f);
  auto back = fft.inverse_to_real(std::move(fk));
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_NEAR(back[i], f[i], 1e-11);
}

TEST(Fft3d, ParsevalHolds) {
  const std::size_t n = 8;
  Fft3d fft(n);
  Rng rng(10);
  std::vector<double> f(n * n * n);
  for (auto& v : f) v = rng.normal();
  auto fk = fft.forward_real(f);
  double sum_x = 0, sum_k = 0;
  for (double v : f) sum_x += v * v;
  for (const auto& c : fk) sum_k += std::norm(c);
  EXPECT_NEAR(sum_k, sum_x * static_cast<double>(n * n * n), 1e-6 * sum_k);
}

TEST(Wavenumber, SignedConvention) {
  EXPECT_EQ(wavenumber(0, 8), 0);
  EXPECT_EQ(wavenumber(1, 8), 1);
  EXPECT_EQ(wavenumber(4, 8), 4);   // Nyquist stays positive
  EXPECT_EQ(wavenumber(5, 8), -3);
  EXPECT_EQ(wavenumber(7, 8), -1);
}

TEST(SplitRange, CoversWithoutOverlap) {
  for (int p : {1, 3, 4, 7}) {
    std::size_t covered = 0;
    std::size_t expect_begin = 0;
    for (int r = 0; r < p; ++r) {
      const Range g = split_range(13, p, r);
      EXPECT_EQ(g.begin, expect_begin);
      expect_begin = g.end();
      covered += g.count;
    }
    EXPECT_EQ(covered, 13u);
  }
}

class SlabFftRanks : public ::testing::TestWithParam<int> {};

TEST_P(SlabFftRanks, MatchesSerialTransform) {
  const int p = GetParam();
  const std::size_t n = 16;

  // Serial reference.
  Fft3d serial(n);
  Rng rng(77);
  std::vector<Complex> field(n * n * n);
  for (auto& v : field) v = {rng.normal(), rng.normal()};
  auto ref = field;
  serial.forward(ref);

  parx::run_ranks(p, [&](parx::Comm& c) {
    SlabFft slab(c, n);
    const Range zr = slab.local_z();
    std::vector<Complex> mine(zr.count * n * n);
    for (std::size_t z = zr.begin; z < zr.end(); ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          mine[slab.index(x, y, z)] = field[serial.index(x, y, z)];

    auto orig = mine;
    slab.forward(mine);
    for (std::size_t z = zr.begin; z < zr.end(); ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x) {
          EXPECT_NEAR(mine[slab.index(x, y, z)].real(), ref[serial.index(x, y, z)].real(),
                      1e-8);
          EXPECT_NEAR(mine[slab.index(x, y, z)].imag(), ref[serial.index(x, y, z)].imag(),
                      1e-8);
        }

    slab.inverse(mine);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_NEAR(mine[i].real(), orig[i].real(), 1e-10);
      EXPECT_NEAR(mine[i].imag(), orig[i].imag(), 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SlabFftRanks, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(SlabFft, RejectsMoreRanksThanPlanes) {
  parx::run_ranks(5, [&](parx::Comm& c) {
    EXPECT_THROW(SlabFft(c, 4), std::invalid_argument);
  });
}


// ---- real-to-complex path ----

class R2CSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(R2CSizes, HalfSpectrumMatchesComplexTransform) {
  const std::size_t n = GetParam();
  Rng rng(n + 50);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();

  Fft1d plan(n);
  std::vector<Complex> full(n);
  for (std::size_t i = 0; i < n; ++i) full[i] = {x[i], 0.0};
  plan.forward(full.data());

  std::vector<Complex> half(n / 2 + 1);
  plan.forward_r2c(x.data(), half.data());
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), 1e-10) << "k = " << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), 1e-10) << "k = " << k;
  }

  std::vector<double> back(n);
  plan.inverse_c2r(half.data(), back.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Lengths, R2CSizes, ::testing::Values<std::size_t>(2, 4, 8, 32, 256));

TEST(Fft3dR2C, MatchesComplexTransformAndRoundtrips) {
  const std::size_t n = 16;
  Rng rng(123);
  std::vector<double> f(n * n * n);
  for (auto& v : f) v = rng.normal();

  Fft3d complex_fft(n);
  const auto ref = complex_fft.forward_real(f);

  Fft3dR2C r2c(n);
  const auto half = r2c.forward(f);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x <= n / 2; ++x) {
        EXPECT_NEAR(half[r2c.index(x, y, z)].real(), ref[complex_fft.index(x, y, z)].real(),
                    1e-9);
        EXPECT_NEAR(half[r2c.index(x, y, z)].imag(), ref[complex_fft.index(x, y, z)].imag(),
                    1e-9);
      }

  const auto back = r2c.inverse(half);
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_NEAR(back[i], f[i], 1e-11);
}

}  // namespace
}  // namespace greem::fft
