#include "util/hash.hpp"

#include <array>

namespace greem::util {
namespace {

// Slicing-by-8: table[k][b] is the CRC of byte b followed by k zero bytes,
// so eight table lookups advance the state over one 8-byte word.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

const CrcTables& crc_tables() {
  static const auto tables = make_crc_tables();
  return tables;
}

/// Little-endian 32-bit word from bytes, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

}  // namespace

void Crc32::update(const void* data, std::size_t n) {
  const auto& t = crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
  for (; n > 0 && reinterpret_cast<std::uintptr_t>(p) % 8 != 0; --n, ++p)
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p), hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

std::uint32_t crc32(const void* data, std::size_t n) {
  Crc32 c;
  c.update(data, n);
  return c.value();
}

std::uint32_t crc32(std::span<const std::byte> data) {
  return crc32(data.data(), data.size());
}

}  // namespace greem::util
