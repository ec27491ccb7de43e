#pragma once
// Shared integrity and fingerprint hashes: CRC32 (IEEE 802.3 polynomial,
// zlib-compatible) guards checkpoint shards and parx transport frames; the
// FNV-1a 64 running hash fingerprints configurations and seeds the
// deterministic lossy-link model.  One implementation, one test
// (util_test).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace greem::util {

/// One-shot CRC32 of a buffer (equals zlib's crc32(0, data, n)).
std::uint32_t crc32(std::span<const std::byte> data);
std::uint32_t crc32(const void* data, std::size_t n);

/// Incremental form: feed chunks, read value() at any point.
class Crc32 {
 public:
  void update(const void* data, std::size_t n);
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// FNV-1a 64-bit running hash; mix in raw bytes or trivially-copyable
/// values.  Order-sensitive, which is what a config fingerprint wants.
class Fnv1a64 {
 public:
  Fnv1a64& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }

  template <class T>
  Fnv1a64& mix(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Go through a memcpy so padding-free scalar types hash their value
    // representation deterministically.
    unsigned char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    return bytes(buf, sizeof(T));
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace greem::util
