#include "util/morton.hpp"

#include <cmath>

namespace greem {

std::uint64_t morton_compact_bits(std::uint64_t x) {
  x &= 0x1249249249249249ULL;
  x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3ULL;
  x = (x ^ (x >> 4)) & 0x100f00f00f00f00fULL;
  x = (x ^ (x >> 8)) & 0x1f0000ff0000ffULL;
  x = (x ^ (x >> 16)) & 0x1f00000000ffffULL;
  x = (x ^ (x >> 32)) & 0x1fffffULL;
  return x;
}

void morton_decode(std::uint64_t key, std::uint64_t& ix, std::uint64_t& iy, std::uint64_t& iz) {
  ix = morton_compact_bits(key);
  iy = morton_compact_bits(key >> 1);
  iz = morton_compact_bits(key >> 2);
}

std::uint64_t morton_key(const Vec3& p) {
  const double scale = static_cast<double>(1ULL << kMortonBits);
  auto cell = [&](double v) {
    auto c = static_cast<std::int64_t>(wrap01(v) * scale);
    if (c >= (1LL << kMortonBits)) c = (1LL << kMortonBits) - 1;
    if (c < 0) c = 0;
    return static_cast<std::uint64_t>(c);
  };
  return morton_encode(cell(p.x), cell(p.y), cell(p.z));
}

}  // namespace greem
