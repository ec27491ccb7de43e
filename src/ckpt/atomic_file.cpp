#include "ckpt/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

namespace greem::ckpt {
namespace {

/// Best-effort fsync of the directory containing `path`, so a committed
/// rename is durable (POSIX requires syncing the directory entry too).
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ok_ = fd_ >= 0;
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!done_) abort();
}

bool AtomicFileWriter::write(const void* data, std::size_t n) {
  if (!ok_) return false;
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ::ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ok_ = false;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool AtomicFileWriter::commit() {
  if (done_) return false;
  if (!ok_) {
    abort();
    return false;
  }
  done_ = true;
  bool good = ::fsync(fd_) == 0;
  good = (::close(fd_) == 0) && good;
  fd_ = -1;
  if (good) good = ::rename(tmp_path_.c_str(), path_.c_str()) == 0;
  if (!good) {
    ::unlink(tmp_path_.c_str());
    return false;
  }
  fsync_parent_dir(path_);
  return true;
}

void AtomicFileWriter::abort() {
  if (done_) return;
  done_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ::unlink(tmp_path_.c_str());
}

bool atomic_write_file(const std::string& path, std::string_view contents) {
  AtomicFileWriter w(path);
  if (!w.write(contents.data(), contents.size())) return false;
  return w.commit();
}

}  // namespace greem::ckpt
