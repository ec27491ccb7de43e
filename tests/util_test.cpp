// Unit tests for the util substrate: vectors, periodic wrapping, RNG,
// Morton codes, statistics, timers, images, tables, parallel_for.

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/box.hpp"
#include "util/hash.hpp"
#include "util/morton.hpp"
#include "util/parallel_for.hpp"
#include "util/pgm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/vec3.hpp"

namespace greem {
namespace {

TEST(Crc32, MatchesKnownVector) {
  // The IEEE CRC32 check value ("123456789" -> 0xCBF43926), so our table
  // is interoperable with zlib/cksum implementations.
  const char* s = "123456789";
  EXPECT_EQ(util::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  util::Crc32 inc;
  inc.update(data.data(), 10);
  inc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc.value(), util::crc32(data.data(), data.size()));
}

/// Bytewise reference CRC32: the reflected IEEE polynomial applied one bit
/// at a time, with no table, to check the sliced implementation against.
std::uint32_t crc32_reference(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next_u64() >> 56);
  return out;
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  const auto buf = random_bytes(96, 1);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 80; ++len)
      ASSERT_EQ(util::crc32(buf.data() + offset, len),
                crc32_reference(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
}

TEST(Crc32, SlicedMatchesBytewiseOnOneMebibyte) {
  const auto buf = random_bytes(std::size_t{1} << 20, 2);
  EXPECT_EQ(util::crc32(buf.data(), buf.size()), crc32_reference(buf.data(), buf.size()));
}

TEST(Crc32, SplitUpdatesMatchBytewiseAtEveryCut) {
  // Transport frames feed 4- and 8-byte fields one update at a time, so
  // every way of cutting a buffer into chunks must give the same value.
  const auto buf = random_bytes(40, 3);
  const std::uint32_t want = crc32_reference(buf.data(), buf.size());
  for (std::size_t a = 0; a <= buf.size(); ++a)
    for (std::size_t b = a; b <= buf.size(); ++b) {
      util::Crc32 inc;
      inc.update(buf.data(), a);
      inc.update(buf.data() + a, b - a);
      inc.update(buf.data() + b, buf.size() - b);
      ASSERT_EQ(inc.value(), want) << "cuts at " << a << " and " << b;
    }
}

TEST(Fnv1a64, OrderAndValueSensitive) {
  const auto h1 = util::Fnv1a64{}.mix(1).mix(2).value();
  const auto h2 = util::Fnv1a64{}.mix(2).mix(1).value();
  const auto h3 = util::Fnv1a64{}.mix(1).mix(2).value();
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h1, h3);
}

TEST(Vec3, Arithmetic) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  EXPECT_DOUBLE_EQ((-a).x, -1.0);
}

TEST(Vec3, IndexAccess) {
  Vec3 a{1, 2, 3};
  EXPECT_DOUBLE_EQ(a[0], 1);
  EXPECT_DOUBLE_EQ(a[1], 2);
  EXPECT_DOUBLE_EQ(a[2], 3);
  a[1] = 9;
  EXPECT_DOUBLE_EQ(a.y, 9);
}

TEST(Wrap, Wrap01ScalarStaysInUnitInterval) {
  EXPECT_DOUBLE_EQ(wrap01(0.25), 0.25);
  EXPECT_DOUBLE_EQ(wrap01(1.25), 0.25);
  EXPECT_DOUBLE_EQ(wrap01(-0.25), 0.75);
  EXPECT_GE(wrap01(-1e-18), 0.0);
  EXPECT_LT(wrap01(-1e-18), 1.0);
  EXPECT_DOUBLE_EQ(wrap01(0.0), 0.0);
}

TEST(Wrap, MinImageIsShortestDisplacement) {
  EXPECT_DOUBLE_EQ(min_image(0.4), 0.4);
  EXPECT_DOUBLE_EQ(min_image(0.6), -0.4);
  EXPECT_DOUBLE_EQ(min_image(-0.6), 0.4);
  const Vec3 a{0.95, 0.5, 0.1}, b{0.05, 0.5, 0.9};
  const Vec3 d = min_image(a, b);
  EXPECT_NEAR(d.x, 0.1, 1e-15);
  EXPECT_NEAR(d.z, -0.2, 1e-15);
}

TEST(Rng, UniformMomentsAndRange) {
  Rng rng(123);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0, sum2 = 0, sum4 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.normal();
    sum += g;
    sum2 += g * g;
    sum4 += g * g * g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  EXPECT_NEAR(sum4 / n, 3.0, 0.1);  // Gaussian kurtosis
}

TEST(Rng, StreamsAreIndependentAndReproducible) {
  Rng a1(42, 0), a2(42, 0), b(42, 1);
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  Rng a3(42, 0);
  EXPECT_NE(a3.next_u64(), b.next_u64());
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Morton, EncodeDecodeRoundtrip) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.uniform_index(1u << kMortonBits);
    const std::uint64_t y = rng.uniform_index(1u << kMortonBits);
    const std::uint64_t z = rng.uniform_index(1u << kMortonBits);
    std::uint64_t rx, ry, rz;
    morton_decode(morton_encode(x, y, z), rx, ry, rz);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
    EXPECT_EQ(rz, z);
  }
}

TEST(Morton, KeyOrderingRespectsOctants) {
  // Points in the low octant sort before points in the high octant.
  const auto lo = morton_key({0.1, 0.1, 0.1});
  const auto hi = morton_key({0.9, 0.9, 0.9});
  EXPECT_LT(lo, hi);
  // Top bit triplet = octant of the unit cube.
  EXPECT_EQ(morton_key({0.9, 0.1, 0.1}) >> (3 * (kMortonBits - 1)), 1u);  // x high
  EXPECT_EQ(morton_key({0.1, 0.9, 0.1}) >> (3 * (kMortonBits - 1)), 2u);  // y high
  EXPECT_EQ(morton_key({0.1, 0.1, 0.9}) >> (3 * (kMortonBits - 1)), 4u);  // z high
}

TEST(Stats, SummaryAndImbalance) {
  const std::vector<double> v{1, 2, 3, 4};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.imbalance(), 1.6);
}

TEST(Stats, Percentile) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 20);
}

TEST(Stats, Rms) {
  const std::vector<double> v{3, 4};
  EXPECT_NEAR(rms(v), std::sqrt(12.5), 1e-12);
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

TEST(Timer, BreakdownAccumulatesAndMerges) {
  TimingBreakdown t;
  t.add("a", 1.0);
  t.add("b", 2.0);
  t.add("a", 0.5);
  EXPECT_DOUBLE_EQ(t.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(t.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 3.5);

  TimingBreakdown u;
  u.add("b", 1.0);
  u.add("c", 4.0);
  t.merge(u);
  EXPECT_DOUBLE_EQ(t.get("b"), 3.0);
  EXPECT_DOUBLE_EQ(t.get("c"), 4.0);
  // First-use order preserved.
  EXPECT_EQ(t.entries()[0].first, "a");
  EXPECT_EQ(t.entries()[2].first, "c");
}

TEST(Timer, StopwatchMeasuresNonNegative) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + i;
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(Box, ContainsAndVolume) {
  Box b{{0.2, 0.2, 0.2}, {0.4, 0.6, 0.8}};
  EXPECT_TRUE(b.contains({0.3, 0.3, 0.3}));
  EXPECT_FALSE(b.contains({0.4, 0.3, 0.3}));  // hi edge exclusive
  EXPECT_TRUE(b.contains({0.2, 0.2, 0.2}));   // lo edge inclusive
  EXPECT_NEAR(b.volume(), 0.2 * 0.4 * 0.6, 1e-15);
}

TEST(Box, PeriodicDistanceWrapsAroundBoundary) {
  Box b{{0.0, 0.0, 0.0}, {0.1, 1.0, 1.0}};
  // Point at x = 0.95 is 0.05 away across the wrap, not 0.85 directly.
  EXPECT_NEAR(b.periodic_dist2({0.95, 0.5, 0.5}), 0.05 * 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(b.periodic_dist2({0.05, 0.5, 0.5}), 0.0);
}

TEST(Pgm, WritesValidFile) {
  GrayImage img(16, 8);
  img.at(3, 2) = 5.0;
  const std::string path = testing::TempDir() + "/test.pgm";
  ASSERT_TRUE(img.write_pgm_log(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[2];
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  EXPECT_EQ(magic[0], 'P');
  EXPECT_EQ(magic[1], '5');
  std::fclose(f);
}

TEST(Table, AlignsColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"x", "1"});
  t.row({"long-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ChunksPartitionRange) {
  std::vector<int> hits(777, 0);
  parallel_for_chunks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 777);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}


TEST(Morton, BoundaryCoordinates) {
  // Coordinates at the very edge of the unit cube stay in range.
  const auto k1 = morton_key({1.0 - 1e-16, 1.0 - 1e-16, 1.0 - 1e-16});
  std::uint64_t x, y, z;
  morton_decode(k1, x, y, z);
  EXPECT_LT(x, 1ull << kMortonBits);
  // Out-of-box inputs wrap periodically.
  EXPECT_EQ(morton_key({1.25, 0.5, 0.5}), morton_key({0.25, 0.5, 0.5}));
  EXPECT_EQ(morton_key({-0.25, 0.5, 0.5}), morton_key({0.75, 0.5, 0.5}));
}

}  // namespace
}  // namespace greem
