#pragma once
// Distributed checkpoint/restart: collective writes of per-rank particle
// shards plus a rank-0 manifest that commits the checkpoint, and the
// restore path that reads them back.
//
// On-disk layout (one directory per checkpoint, under a run-level dir):
//
//   <dir>/ckpt_00000004/
//     shard_00000.bin     per-rank packed payload behind a CRC'd header
//     shard_00001.bin     (written via temp+fsync+rename, so a crash never
//     ...                  leaves a half shard under the final name)
//     MANIFEST.json       written LAST, atomically, by rank 0 -- the commit
//                         record.  No manifest (or an invalid one) means
//                         the checkpoint does not exist.
//
// Commit protocol: every rank writes + commits its shard, rank 0 gathers
// the shard records (a gatherv, which also orders every shard commit
// before the manifest write), writes MANIFEST.json and removes the
// manifests of the checkpoints retention supersedes.  Failures are agreed
// collectively (allreduce) so either every rank sees a committed
// checkpoint or every rank throws CkptError.  Only then does each rank
// unlink its own superseded shards; after a barrier rank 0 removes the
// emptied directories and older leftovers.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/manifest.hpp"
#include "parx/comm.hpp"

namespace greem::ckpt {

/// Checkpoint/restore failure (I/O, corruption, mismatched config/ranks).
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// This rank's contribution to a checkpoint.
struct RankShard {
  std::span<const std::byte> payload;  ///< packed trivially-copyable items
  std::uint64_t n_items = 0;
};

struct WriteStats {
  std::string path;              ///< the committed checkpoint directory
  std::uint64_t local_bytes = 0; ///< payload bytes this rank wrote
  double seconds = 0;            ///< wall time of the collective write
};

/// Collective: write the checkpoint for `global` under `dir` (created if
/// needed) and prune so at most `keep_last` committed checkpoints remain
/// (0 = keep everything).  Throws CkptError on every rank if any rank
/// fails.  Telemetry: ckpt/write_seconds, ckpt/bytes, ckpt/writes.
WriteStats write_checkpoint(parx::Comm& world, const std::string& dir,
                            const GlobalState& global, const RankShard& shard,
                            std::size_t keep_last);

/// Committed checkpoint directories under `dir`, oldest first.  A
/// directory without a valid manifest is not a checkpoint.
std::vector<std::string> list_committed(const std::string& dir);

/// The newest committed checkpoint under `dir`, if any.
std::optional<std::string> find_latest(const std::string& dir);

/// Read + validate the manifest of one checkpoint directory.
std::optional<Manifest> read_manifest(const std::string& ckpt_path);

/// One rank's restored state.
struct Restored {
  Manifest manifest;
  std::vector<std::byte> payload;  ///< this rank's shard payload
  std::uint64_t n_items = 0;
};

/// Collective: load the checkpoint at `ckpt_path` (each rank reads its own
/// shard; CRC and size are verified).  Throws CkptError on every rank if
/// any rank fails -- corrupt shard, missing manifest, or a world size that
/// does not match the checkpoint's rank grid.
/// Telemetry: ckpt/restores, ckpt/restore_seconds.
Restored read_checkpoint(parx::Comm& world, const std::string& ckpt_path);

}  // namespace greem::ckpt
