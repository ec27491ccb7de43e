#include "io/snapshot.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "ckpt/atomic_file.hpp"

namespace greem::io {
namespace {

constexpr char kMagic[8] = {'G', 'R', 'E', 'E', 'M', 'S', 'N', '1'};
static_assert(sizeof(SnapshotHeader) == 32, "the header's bytes are the file format");

}  // namespace

bool write_snapshot(const std::string& path, const SnapshotHeader& header,
                    std::span<const core::Particle> particles) {
  // Atomic: a crash mid-write leaves the previous snapshot (or nothing),
  // never a truncated file under the final name.
  ckpt::AtomicFileWriter out(path);
  out.write(kMagic, sizeof(kMagic));
  // Every header byte is a field, so value-initializing it fixes the
  // file's bytes (reserved stays 0) and snapshots stay byte-identical.
  SnapshotHeader h{};
  h.clock = header.clock;
  h.particle_mass = header.particle_mass;
  h.comoving = header.comoving;
  h.n_particles = particles.size();
  out.write(&h, sizeof(h));
  out.write(particles.data(), particles.size_bytes());
  return out.commit();
}

std::optional<Snapshot> read_snapshot(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t fsize = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;

  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(magic)) != 0) return std::nullopt;
  Snapshot snap;
  in.read(reinterpret_cast<char*>(&snap.header), sizeof(snap.header));
  if (!in) return std::nullopt;

  // Bound the claimed count against the actual file size BEFORE resizing,
  // so a corrupt/hostile header cannot drive a huge allocation; requiring
  // the exact size also rejects truncated files and trailing garbage.
  const std::uintmax_t expect = static_cast<std::uintmax_t>(sizeof(kMagic)) +
                                sizeof(SnapshotHeader) +
                                static_cast<std::uintmax_t>(snap.header.n_particles) *
                                    sizeof(core::Particle);
  if (snap.header.n_particles > (fsize - sizeof(kMagic) - sizeof(SnapshotHeader)) /
                                    sizeof(core::Particle) ||
      fsize != expect)
    return std::nullopt;

  snap.particles.resize(snap.header.n_particles);
  in.read(reinterpret_cast<char*>(snap.particles.data()),
          static_cast<std::streamsize>(snap.particles.size() * sizeof(core::Particle)));
  if (!in) return std::nullopt;
  return snap;
}

}  // namespace greem::io
