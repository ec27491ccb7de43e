#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ckpt/atomic_file.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace greem::ckpt {
namespace fs = std::filesystem;

namespace {

constexpr char kShardMagic[8] = {'G', 'R', 'E', 'E', 'M', 'C', 'K', '1'};
constexpr std::uint32_t kShardVersion = 2;  // version 1 (40-byte header) is refused
constexpr char kDirPrefix[] = "ckpt_";

/// Fixed shard header following the magic; kept padding-free so the file
/// bytes are the value representation.
struct ShardHeader {
  std::uint32_t version = kShardVersion;
  std::uint32_t rank = 0;
  std::uint64_t n_items = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc32 = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(ShardHeader) == 32);

std::string ckpt_dir_name(std::uint64_t step) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%08" PRIu64, kDirPrefix, step);
  return buf;
}

std::string shard_file_name(int rank) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%05d.bin", rank);
  return buf;
}

/// Step index encoded in a checkpoint directory name, or nullopt.
std::optional<std::uint64_t> step_of_dir(const std::string& name) {
  const std::size_t plen = sizeof(kDirPrefix) - 1;
  if (name.size() <= plen || name.compare(0, plen, kDirPrefix) != 0) return std::nullopt;
  std::uint64_t step = 0;
  for (std::size_t i = plen; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    step = step * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return step;
}

/// Fixed-size record gathered at rank 0 to build the manifest shard list.
struct ShardRecord {
  std::uint64_t n_items;
  std::uint64_t bytes;
  std::uint32_t crc;
  std::uint32_t ok;
};

/// Rank 0: remove the manifests of the checkpoints `keep_last` supersedes,
/// oldest first, stopping at one that cannot be removed; returns the step
/// below which every directory may go (0 = none).
std::uint64_t uncommit_superseded(const std::string& dir, std::size_t keep_last) {
  const auto committed = keep_last ? list_committed(dir) : std::vector<std::string>{};
  if (committed.size() <= keep_last) return 0;
  std::size_t i = 0;
  std::error_code ec;
  while (i + keep_last < committed.size() && fs::remove(fs::path(committed[i]) / kManifestName, ec))
    ++i;
  return step_of_dir(fs::path(committed[i]).filename().string()).value_or(0);
}

}  // namespace

WriteStats write_checkpoint(parx::Comm& world, const std::string& dir,
                            const GlobalState& global, const RankShard& shard,
                            std::size_t keep_last) {
  telemetry::Span span("ckpt/write");
  Stopwatch sw;
  const int rank = world.rank();
  const std::string ckpt_path = (fs::path(dir) / ckpt_dir_name(global.step)).string();

  // Rank 0 creates the directory; everyone waits for it to exist.
  bool ok = true;
  if (rank == 0) {
    std::error_code ec;
    fs::create_directories(ckpt_path, ec);
    // A stale manifest from an identically-numbered checkpoint must not be
    // able to commit a half-written retry; remove it before shards land.
    fs::remove(fs::path(ckpt_path) / kManifestName, ec);
    ok = fs::is_directory(ckpt_path, ec);
  }
  if (!world.allreduce_min(ok ? 1 : 0)) throw CkptError("ckpt: cannot create checkpoint directory");

  // Every rank writes its shard atomically.
  const std::string shard_path = (fs::path(ckpt_path) / shard_file_name(rank)).string();
  ShardHeader h;
  h.rank = static_cast<std::uint32_t>(rank);
  h.n_items = shard.n_items;
  h.payload_bytes = shard.payload.size();
  h.payload_crc32 = [&] { telemetry::Span s("ckpt/crc"); return util::crc32(shard.payload); }();
  {
    telemetry::Span commit_span("ckpt/shard_commit");
    AtomicFileWriter w(shard_path);
    w.write(kShardMagic, sizeof(kShardMagic));
    w.write_value(h);
    w.write(shard.payload);
    ok = w.commit();
  }

  // Gather shard records; the gatherv also orders every shard commit
  // before rank 0 writes the manifest.
  ShardRecord rec{h.n_items, h.payload_bytes, h.payload_crc32, ok ? 1u : 0u};
  auto records = world.gatherv(std::span<const ShardRecord>(&rec, 1), 0);

  // The final agree doubles as rank 0's broadcast of the retention cutoff:
  // 0 = some rank failed, else 1 + the step below which directories go.
  std::uint64_t verdict = ok ? ~std::uint64_t{0} : 0;
  if (rank == 0) {
    telemetry::Span manifest_span("ckpt/manifest");
    bool commit_ok = ok;
    Manifest m;
    m.state = global;
    for (std::size_t r = 0; r < records.size(); ++r) {
      commit_ok = commit_ok && records[r].ok != 0;
      m.shards.push_back({static_cast<int>(r), shard_file_name(static_cast<int>(r)),
                          records[r].n_items, records[r].bytes, records[r].crc});
    }
    const auto meta = telemetry::RunMeta::collect("ckpt", "");
    m.git_sha = meta.git_sha;
    m.build_type = meta.build_type;
    m.timestamp = meta.timestamp;
    if (commit_ok)
      commit_ok = atomic_write_file((fs::path(ckpt_path) / kManifestName).string(),
                                    manifest_to_json(m));
    // Uncommit the superseded checkpoints before the agree, so every shard
    // removal after it only touches directories nothing can restore from.
    verdict = commit_ok ? 1 + uncommit_superseded(dir, keep_last) : 0;
  }
  verdict = world.allreduce_min(verdict);
  if (verdict == 0) throw CkptError("ckpt: checkpoint write failed");
  if (verdict > 1) {
    // Each rank unlinks its own shards; rank 0 then clears the emptied
    // directories and any older leftovers (uncommitted shards, .tmp files).
    telemetry::Span retention_span("ckpt/retention");
    std::vector<fs::path> old_dirs;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const auto step = step_of_dir(entry.path().filename().string());
      if (step && *step < verdict - 1 && entry.is_directory(ec)) old_dirs.push_back(entry.path());
    }
    for (const auto& d : old_dirs) fs::remove(d / shard_file_name(rank), ec);
    world.barrier();
    if (rank == 0)
      for (const auto& d : old_dirs) fs::remove_all(d, ec);
  }

  WriteStats stats{ckpt_path, shard.payload.size(), sw.seconds()};
  auto& reg = telemetry::Registry::global();
  reg.counter("ckpt/bytes").add(stats.local_bytes);
  if (rank == 0) {
    reg.counter("ckpt/writes").add();
    reg.histogram("ckpt/write_seconds").record(stats.seconds);
  }
  return stats;
}

std::vector<std::string> list_committed(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    const auto step = step_of_dir(name);
    if (!step) continue;
    if (read_manifest(entry.path().string())) found.emplace_back(*step, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [step, path] : found) out.push_back(std::move(path));
  return out;
}

std::optional<std::string> find_latest(const std::string& dir) {
  auto committed = list_committed(dir);
  if (committed.empty()) return std::nullopt;
  return committed.back();
}

std::optional<Manifest> read_manifest(const std::string& ckpt_path) {
  std::ifstream in(fs::path(ckpt_path) / kManifestName);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return parse_manifest(buf.str());
}

Restored read_checkpoint(parx::Comm& world, const std::string& ckpt_path) {
  telemetry::Span span("ckpt/restore");
  Stopwatch sw;
  const int rank = world.rank();

  Restored out;
  std::string err;
  bool ok = true;
  if (auto m = read_manifest(ckpt_path)) {
    out.manifest = std::move(*m);
  } else {
    ok = false;
    err = "ckpt: missing or invalid manifest (checkpoint not committed?)";
  }
  if (ok && out.manifest.shards.size() != static_cast<std::size_t>(world.size())) {
    ok = false;
    err = "ckpt: checkpoint rank grid does not match this world size";
  }
  if (ok) {
    const ShardInfo& info = out.manifest.shards[static_cast<std::size_t>(rank)];
    const std::string path = (fs::path(ckpt_path) / info.file).string();
    std::ifstream in(path, std::ios::binary);
    char magic[sizeof(kShardMagic)];
    ShardHeader h;
    std::error_code ec;
    const auto fsize = fs::file_size(path, ec);
    if (!in || ec || !in.read(magic, sizeof magic) ||
        std::memcmp(magic, kShardMagic, sizeof magic) != 0 ||
        !in.read(reinterpret_cast<char*>(&h), sizeof h)) {
      ok = false;
      err = "ckpt: unreadable shard " + path;
    } else if (h.version != kShardVersion || h.rank != static_cast<std::uint32_t>(rank) ||
               h.n_items != info.n_items || h.payload_bytes != info.bytes ||
               h.payload_crc32 != info.crc32 ||
               fsize != sizeof(kShardMagic) + sizeof(ShardHeader) + h.payload_bytes) {
      ok = false;
      err = "ckpt: shard header disagrees with manifest (or trailing garbage): " + path;
    } else {
      out.payload.resize(h.payload_bytes);
      if (!in.read(reinterpret_cast<char*>(out.payload.data()),
                   static_cast<std::streamsize>(out.payload.size())) ||
          util::crc32(out.payload) != info.crc32) {
        ok = false;
        err = "ckpt: shard payload CRC mismatch: " + path;
      } else {
        out.n_items = h.n_items;
      }
    }
  }
  const int all_ok = world.allreduce_min(ok ? 1 : 0);
  if (!all_ok)
    throw CkptError(err.empty() ? "ckpt: a sibling rank failed to read its shard" : err);

  auto& reg = telemetry::Registry::global();
  if (rank == 0) {
    reg.counter("ckpt/restores").add();
    reg.histogram("ckpt/restore_seconds").record(sw.seconds());
  }
  return out;
}

}  // namespace greem::ckpt
