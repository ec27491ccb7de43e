#include "telemetry/step_report.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "telemetry/json.hpp"

namespace greem::telemetry {

namespace {

void write_breakdown(JsonWriter& w, std::string_view key, const TimingBreakdown& b) {
  w.key(key).begin_object();
  for (const auto& [name, seconds] : b.entries()) w.field(name, seconds);
  w.field("total", b.total());
  w.end_object();
}

}  // namespace

void write_jsonl(std::ostream& os, const StepRecord& r) {
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  if (!r.job.empty()) w.field("job", r.job);
  w.field("step", r.step);
  w.field("t", r.t);
  w.field("ranks", r.ranks);
  w.field("nsub", r.nsub);
  w.field("n_particles", r.n_particles);
  write_breakdown(w, "pm", r.pm);
  write_breakdown(w, "pp", r.pp);
  write_breakdown(w, "dd", r.dd);
  w.field("pp_seconds_max", r.pp_seconds_max);
  w.field("pp_seconds_mean", r.pp_seconds_mean);
  w.field("pp_imbalance", r.pp_imbalance());
  w.field("interactions", r.interactions);
  w.field("pairs_evaluated", r.pairs_evaluated);
  w.field("flops", r.flops);
  w.field("flop_rate", r.flop_rate);
  w.field("nodes_visited", r.nodes_visited);
  w.field("walk_mnodes_s", r.walk_mnodes_s);
  w.field("tree_build_mpart_s", r.tree_build_mpart_s);
  w.field("groups", r.groups);
  w.field("mean_ni", r.mean_ni);
  w.field("mean_nj", r.mean_nj);
  w.field("work_imbalance", r.work_imbalance);
  w.field("ghosts_imported", r.ghosts_imported);
  w.key("pool").begin_object();
  w.field("loops", r.pool_loops);
  w.field("chunks", r.pool_chunks);
  w.field("steals", r.pool_steals);
  w.field("imbalance", r.pool_imbalance);
  w.end_object();
  w.key("traffic").begin_object();
  for (const auto& ph : r.traffic) {
    w.key(ph.phase).begin_object();
    w.field("messages", ph.messages);
    w.field("bytes", ph.bytes);
    w.field("model_time_s", ph.model_time_s);
    w.end_object();
  }
  w.end_object();
  if (r.retransmits > 0 || r.transport_drops > 0 || r.corrupt_detected > 0) {
    w.key("transport").begin_object();
    w.field("retransmits", r.retransmits);
    w.field("drops", r.transport_drops);
    w.field("corrupt_detected", r.corrupt_detected);
    w.end_object();
  }
  if (!r.pp_groups.empty()) {
    w.key("pp_groups").begin_array();
    for (const auto& g : r.pp_groups) {
      w.begin_object();
      w.field("groups", g.groups);
      w.field("interactions", g.interactions);
      w.field("ghost_sources", g.ghost_sources);
      w.field("walk_s", g.walk_s);
      w.field("force_s", g.force_s);
      w.field("max_group_s", g.max_group_s);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  os << "\n";
}

bool append_jsonl_line(const std::string& path, std::string_view line, bool fsync) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  bool ok = true;
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (ok && fsync && ::fsync(fd) != 0) ok = false;
  ::close(fd);
  return ok;
}

}  // namespace greem::telemetry
