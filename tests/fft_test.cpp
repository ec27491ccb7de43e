// FFT substrate tests: 1-D against a direct DFT, 3-D roundtrips and
// analytic modes, and the slab-parallel convolution against the serial
// real-to-complex transform.

#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>
#include <numbers>

#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "fft/slab_fft.hpp"
#include "parx/runtime.hpp"
#include "util/rng.hpp"

namespace greem::fft {
namespace {

/// Forward transform of a real field through the complex transform.
std::vector<Complex> forward_of_real(const Fft3d& fft, const std::vector<double>& f) {
  std::vector<Complex> data(f.begin(), f.end());
  fft.forward(data);
  return data;
}

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

class ColumnSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColumnSizes, ColumnsAreBitwiseTheLineTransforms) {
  const std::size_t n = GetParam(), cols = 5, stride = 7;
  Rng rng(n + 11);
  std::vector<Complex> block(n * stride);
  for (auto& v : block) v = {rng.normal(), rng.normal()};
  Fft1d plan(n);
  for (const bool inverse : {false, true}) {
    std::vector<Complex> got = block;
    if (inverse)
      plan.inverse_columns(got.data(), cols, stride);
    else
      plan.forward_columns(got.data(), cols, stride);
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < stride; ++c) {
      std::vector<Complex> line(n);
      for (std::size_t i = 0; i < n; ++i) line[i] = block[i * stride + c];
      if (c < cols) {  // the padding columns past `cols` stay untouched
        if (inverse)
          plan.inverse(line.data());
        else
          plan.forward(line.data());
      }
      for (std::size_t i = 0; i < n; ++i)
        mismatches += std::memcmp(&line[i], &got[i * stride + c], sizeof(Complex)) != 0;
    }
    EXPECT_EQ(mismatches, 0u) << "n = " << n << (inverse ? " inverse" : " forward");
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ColumnSizes, ::testing::Values<std::size_t>(2, 8, 64));

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
  auto fk = forward_of_real(fft, f);
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
  auto fk = forward_of_real(fft, f);
  fft.inverse(fk);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(fk[i].real(), f[i], 1e-11);
    EXPECT_NEAR(fk[i].imag(), 0.0, 1e-11);
  }
}

TEST(Fft3d, ParsevalHolds) {
  const std::size_t n = 8;
  Fft3d fft(n);
  Rng rng(10);
  std::vector<double> f(n * n * n);
  for (auto& v : f) v = rng.normal();
  auto fk = forward_of_real(fft, f);
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

/// A real field and a real multiplier over the half spectrum, random in
/// sign and size: every layout slip shows in the convolution.
struct ConvolveCase {
  std::vector<double> field, green;
};

ConvolveCase convolve_case(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ConvolveCase c;
  c.field.resize(n * n * n);
  c.green.resize(n * n * (n / 2 + 1));
  for (auto& v : c.field) v = rng.normal();
  for (auto& v : c.green) v = rng.normal();
  return c;
}

class SlabFftRanks : public ::testing::TestWithParam<int> {};

TEST_P(SlabFftRanks, ConvolveIsBitwiseTheSerialR2CTransform) {
  const int p = GetParam();
  const std::size_t n = 16, h = n / 2 + 1;
  const ConvolveCase in = convolve_case(n, 77);

  // Serial reference: forward, multiply in the half spectrum, inverse.
  Fft3dR2C serial(n);
  auto spec = serial.forward(in.field);
  for (std::size_t i = 0; i < spec.size(); ++i) spec[i] *= in.green[i];
  const std::vector<double> ref = serial.inverse(std::move(spec));

  std::vector<std::size_t> columns(static_cast<std::size_t>(p));
  parx::run_ranks(p, [&](parx::Comm& c) {
    SlabFft slab(c, n);
    const Range zr = slab.local_z(), xr = slab.local_kx();
    columns[static_cast<std::size_t>(c.rank())] = xr.count;
    std::vector<double> mine(slab.slab_cells());
    for (std::size_t z = zr.begin; z < zr.end(); ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x) mine[slab.index(x, y, z)] = in.field[(z * n + y) * n + x];
    std::vector<double> green(slab.green_cells());
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = xr.begin; x < xr.end(); ++x)
          green[(z * n + y) * xr.count + (x - xr.begin)] = in.green[(z * n + y) * h + x];

    slab.convolve(mine, green);
    std::size_t mismatches = 0;
    for (std::size_t z = zr.begin; z < zr.end(); ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          mismatches += std::bit_cast<std::uint64_t>(mine[slab.index(x, y, z)]) !=
                        std::bit_cast<std::uint64_t>(ref[(z * n + y) * n + x]);
    EXPECT_EQ(mismatches, 0u) << "rank " << c.rank() << " of " << p;
  });
  // Every kx column is on exactly one rank; past n/2+1 ranks some hold none.
  std::size_t total = 0, idle = 0;
  for (const std::size_t cx : columns) {
    total += cx;
    idle += cx == 0;
  }
  EXPECT_EQ(total, h);
  EXPECT_EQ(idle, static_cast<std::size_t>(p) > h ? static_cast<std::size_t>(p) - h : 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SlabFftRanks, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(SlabFft, ConvolveTransposesTwiceWithTheHalfSpectrum) {
  // Two alltoallv per convolution, each moving the half spectrum once:
  // p(p-1) messages and n*n*(n/2+1) complex values less the self blocks.
  const std::size_t n = 64, h = n / 2 + 1;
  const int p = 8;
  const ConvolveCase in = convolve_case(n, 5);
  parx::Runtime rt(p);
  rt.run([&](parx::Comm& c) {
    SlabFft slab(c, n);
    const Range zr = slab.local_z();
    std::vector<double> mine(in.field.begin() + static_cast<std::ptrdiff_t>(zr.begin * n * n),
                             in.field.begin() + static_cast<std::ptrdiff_t>(zr.end() * n * n));
    std::vector<double> green(slab.green_cells(), 1.0);
    slab.convolve(mine, green);
  });
  std::size_t self = 0;
  for (int r = 0; r < p; ++r) self += split_range(n, p, r).count * n * split_range(h, p, r).count;
  const parx::TrafficTotals t = rt.ledger().totals();
  EXPECT_EQ(t.messages, 2u * p * (p - 1));
  EXPECT_EQ(t.bytes, 2 * (n * n * h - self) * sizeof(Complex));
  EXPECT_EQ(t.bytes, 3'784'704u);
}

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
  const auto ref = forward_of_real(complex_fft, f);

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
