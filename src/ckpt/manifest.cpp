#include "ckpt/manifest.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/json_reader.hpp"

namespace greem::ckpt {
namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::optional<std::uint64_t> parse_hex_u64(const std::string& s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return std::nullopt;
  }
  return v;
}

}  // namespace

void write_manifest(std::ostream& os, const Manifest& m) {
  telemetry::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.field("format", kManifestFormat);
  w.field("version", m.version);
  w.field("step", m.state.step);
  w.field("substep", m.state.substep);
  w.field_exact("clock", m.state.clock);
  w.field_exact("pending_long_kick", m.state.pending_long_kick);
  w.field("config_fingerprint", hex_u64(m.state.config_fingerprint));
  w.field("ranks", m.shards.size());
  w.key("dims").begin_array();
  for (int d : m.state.dims) w.value(d);
  w.end_array();
  w.key("decomp").begin_array();
  for (double v : m.state.decomp_flat) w.value_exact(v);
  w.end_array();
  w.key("smoother_history").begin_array();
  for (const auto& h : m.state.smoother_history) {
    w.begin_array();
    for (double v : h) w.value_exact(v);
    w.end_array();
  }
  w.end_array();
  w.field("git_sha", m.git_sha);
  w.field("build_type", m.build_type);
  w.field("timestamp", m.timestamp);
  w.key("shards").begin_array();
  for (const auto& s : m.shards) {
    w.begin_object();
    w.field("rank", s.rank);
    w.field("file", s.file);
    w.field("n_items", s.n_items);
    w.field("bytes", s.bytes);
    w.field("crc32", s.crc32);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

std::string manifest_to_json(const Manifest& m) {
  std::ostringstream os;
  write_manifest(os, m);
  return os.str();
}

std::optional<Manifest> parse_manifest(const std::string& json_text) {
  const auto doc = telemetry::parse_json(json_text);
  if (!doc || !doc->is_object()) return std::nullopt;
  if (doc->string_or("format", "") != kManifestFormat) return std::nullopt;

  Manifest m;
  m.version = static_cast<std::uint32_t>(doc->u64_or("version", 0));
  if (m.version == 0 || m.version > kManifestVersion) return std::nullopt;

  const telemetry::JsonValue* step = doc->find("step");
  const telemetry::JsonValue* substep = doc->find("substep");
  const telemetry::JsonValue* clock = doc->find("clock");
  const telemetry::JsonValue* kick = doc->find("pending_long_kick");
  const telemetry::JsonValue* fp = doc->find("config_fingerprint");
  const telemetry::JsonValue* dims = doc->find("dims");
  const telemetry::JsonValue* decomp = doc->find("decomp");
  const telemetry::JsonValue* shards = doc->find("shards");
  if (!step || !step->is_number() || !substep || !clock || !clock->is_number() ||
      !kick || !fp || !fp->is_string() || !dims || !dims->is_array() ||
      dims->items().size() != 3 || !decomp || !decomp->is_array() || !shards ||
      !shards->is_array())
    return std::nullopt;

  m.state.step = step->as_u64();
  m.state.substep = substep->as_u64();
  m.state.clock = clock->as_double();
  m.state.pending_long_kick = kick->as_double();
  const auto fingerprint = parse_hex_u64(fp->as_string());
  if (!fingerprint) return std::nullopt;
  m.state.config_fingerprint = *fingerprint;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& d = dims->items()[i];
    if (!d.is_number() || d.as_i64() < 1) return std::nullopt;
    m.state.dims[i] = static_cast<int>(d.as_i64());
  }
  for (const auto& v : decomp->items()) {
    if (!v.is_number()) return std::nullopt;
    m.state.decomp_flat.push_back(v.as_double());
  }
  if (const telemetry::JsonValue* hist = doc->find("smoother_history");
      hist && hist->is_array()) {
    for (const auto& h : hist->items()) {
      if (!h.is_array()) return std::nullopt;
      std::vector<double> row;
      for (const auto& v : h.items()) {
        if (!v.is_number()) return std::nullopt;
        row.push_back(v.as_double());
      }
      m.state.smoother_history.push_back(std::move(row));
    }
  }
  m.git_sha = doc->string_or("git_sha", "");
  m.build_type = doc->string_or("build_type", "");
  m.timestamp = doc->string_or("timestamp", "");

  for (const auto& sv : shards->items()) {
    if (!sv.is_object()) return std::nullopt;
    ShardInfo s;
    const telemetry::JsonValue* file = sv.find("file");
    if (!file || !file->is_string() || file->as_string().empty()) return std::nullopt;
    s.rank = static_cast<int>(sv.u64_or("rank", ~std::uint64_t{0}));
    s.file = file->as_string();
    s.n_items = sv.u64_or("n_items", 0);
    s.bytes = sv.u64_or("bytes", 0);
    s.crc32 = static_cast<std::uint32_t>(sv.u64_or("crc32", 0));
    m.shards.push_back(std::move(s));
  }

  // Structural consistency: shard list must cover ranks 0..p-1 in order,
  // and the rank grid must multiply out to the shard count.
  const auto ranks = doc->u64_or("ranks", 0);
  if (m.shards.size() != ranks || ranks == 0) return std::nullopt;
  const std::uint64_t grid = static_cast<std::uint64_t>(m.state.dims[0]) *
                             static_cast<std::uint64_t>(m.state.dims[1]) *
                             static_cast<std::uint64_t>(m.state.dims[2]);
  if (grid != ranks) return std::nullopt;
  for (std::size_t r = 0; r < m.shards.size(); ++r)
    if (m.shards[r].rank != static_cast<int>(r)) return std::nullopt;
  return m;
}

}  // namespace greem::ckpt
