#pragma once
// The checkpoint manifest: the single commit record of a distributed
// checkpoint.  Shards land first (atomically, CRC'd); MANIFEST.json is
// written last, atomically, by rank 0, and a checkpoint exists if and only
// if its manifest parses and validates.  Versioned so future layouts can
// migrate; doubles that are *state* (clock, kick, cuts) are written with
// JsonWriter::value_exact, so a restore is bit-identical.

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace greem::ckpt {

inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr char kManifestName[] = "MANIFEST.json";
inline constexpr char kManifestFormat[] = "greem-ckpt";

/// One rank's shard as recorded at commit time.
struct ShardInfo {
  int rank = 0;
  std::string file;             ///< relative to the checkpoint directory
  std::uint64_t n_items = 0;    ///< particles in the shard
  std::uint64_t bytes = 0;      ///< payload bytes (excluding the shard header)
  std::uint32_t crc32 = 0;      ///< CRC32 of the payload
};

/// Simulation state that is global (identical on every rank).
struct GlobalState {
  std::uint64_t step = 0;           ///< completed steps
  std::uint64_t substep = 0;        ///< domain-decomposition cycle counter
  double clock = 0;
  double pending_long_kick = 0;     ///< the PM half-kick owed to the next step
  std::uint64_t config_fingerprint = 0;
  std::array<int, 3> dims{1, 1, 1};
  std::vector<double> decomp_flat;  ///< Decomposition::flatten()
  std::vector<std::vector<double>> smoother_history;  ///< BoundarySmoother window
};

struct Manifest {
  std::uint32_t version = kManifestVersion;
  GlobalState state;
  std::vector<ShardInfo> shards;
  // Provenance (from telemetry::RunMeta; informational, not validated).
  std::string git_sha;
  std::string build_type;
  std::string timestamp;
};

/// Serialize to JSON (the exact content of MANIFEST.json).
void write_manifest(std::ostream& os, const Manifest& m);
std::string manifest_to_json(const Manifest& m);

/// Parse and validate a manifest document.  Returns nullopt on syntax
/// errors, wrong format tag, unsupported version, or missing/inconsistent
/// required fields (shard count vs ranks, dims product vs ranks).
std::optional<Manifest> parse_manifest(const std::string& json_text);

}  // namespace greem::ckpt
