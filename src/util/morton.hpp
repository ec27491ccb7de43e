#pragma once
// 3-D Morton (Z-order) codes.  The octree builder sorts particles by Morton
// key so that each tree node owns a contiguous particle range; this is the
// standard linearized-octree construction.

#include <cstdint>

#include "util/vec3.hpp"

namespace greem {

/// Bits of resolution per dimension (3*21 = 63 bits total).
inline constexpr int kMortonBits = 21;

/// Spread the low 21 bits of x so each lands at every third position.
/// Inline: the octree computes one key per particle per build.
inline std::uint64_t morton_expand_bits(std::uint64_t x) {
  x &= 0x1fffffULL;  // 21 bits
  x = (x | (x << 32)) & 0x1f00000000ffffULL;
  x = (x | (x << 16)) & 0x1f0000ff0000ffULL;
  x = (x | (x << 8)) & 0x100f00f00f00f00fULL;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ULL;
  x = (x | (x << 2)) & 0x1249249249249249ULL;
  return x;
}

/// Inverse of morton_expand_bits.
std::uint64_t morton_compact_bits(std::uint64_t x);

/// Morton key of integer cell coordinates (each < 2^21).
inline std::uint64_t morton_encode(std::uint64_t ix, std::uint64_t iy, std::uint64_t iz) {
  return morton_expand_bits(ix) | (morton_expand_bits(iy) << 1) | (morton_expand_bits(iz) << 2);
}

/// Recover the integer cell coordinates of a key.
void morton_decode(std::uint64_t key, std::uint64_t& ix, std::uint64_t& iy, std::uint64_t& iz);

/// Morton key of a position in the unit cube [0,1)^3 at full resolution.
std::uint64_t morton_key(const Vec3& p);

}  // namespace greem
