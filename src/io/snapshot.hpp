#pragma once
// Binary particle snapshots (single file, little-endian host layout):
// a fixed header followed by the packed Particle array.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/particle.hpp"

namespace greem::io {

struct SnapshotHeader {
  std::uint64_t n_particles = 0;
  double clock = 0;       ///< scale factor or time
  double particle_mass = 0;
  std::uint32_t comoving = 0;
  std::uint32_t reserved = 0;  ///< always 0: the header has no padding bytes
};

bool write_snapshot(const std::string& path, const SnapshotHeader& header,
                    std::span<const core::Particle> particles);

struct Snapshot {
  SnapshotHeader header;
  std::vector<core::Particle> particles;
};

std::optional<Snapshot> read_snapshot(const std::string& path);

}  // namespace greem::io
