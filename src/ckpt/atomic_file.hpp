#pragma once
// Atomic (crash-consistent) file writes: data goes to `<path>.tmp`, is
// fsync'd, then renamed over `path`; the parent directory is fsync'd so
// the rename itself survives a crash.  A writer that is destroyed without
// commit() -- error path or exception unwind -- removes its temp file, so
// partial writes never masquerade as complete files.
//
// Shared by the checkpoint shards/manifest and io::write_snapshot.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace greem::ckpt {

class AtomicFileWriter {
 public:
  /// Opens `<path>.tmp` for writing (truncating any stale temp).
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();  ///< abort()s unless committed

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// False when the temp file could not be opened or a write failed;
  /// subsequent writes and commit() fail fast.
  bool ok() const { return ok_; }

  bool write(const void* data, std::size_t n);
  bool write(std::span<const std::byte> data) { return write(data.data(), data.size()); }

  template <class T>
  bool write_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return write(&v, sizeof(T));
  }

  /// Flush + fsync + rename onto the final path (+ directory fsync).
  /// Returns false -- and removes the temp file -- on any failure.
  bool commit();

  /// Drop the temp file without touching the final path.  Idempotent.
  void abort();

 private:
  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  bool ok_ = false;
  bool done_ = false;
};

/// One-shot convenience for small files (manifests, configs).
bool atomic_write_file(const std::string& path, std::string_view contents);

}  // namespace greem::ckpt
