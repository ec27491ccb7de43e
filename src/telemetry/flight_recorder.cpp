#include "telemetry/flight_recorder.hpp"

#if GREEM_TELEMETRY_ENABLED

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/trace.hpp"

namespace greem::telemetry {
namespace {

static_assert((kFlightRingCapacity & (kFlightRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

enum class RecKind : std::uint8_t { kSpan = 0, kMark = 1, kFrame = 2 };

/// One ring slot.  Every field is an atomic written with relaxed stores;
/// `stamp` is a per-slot seqlock (odd while a writer is inside, bumped to
/// even with release order when done).  A concurrent dump validates the
/// stamp before and after reading and skips the slot if it moved -- a torn
/// slot costs one missing event in the dump, never a data race.
struct Slot {
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint8_t> rec{0};     ///< RecKind
  std::atomic<std::uint8_t> frame{0};   ///< FrameEventKind when rec == kFrame
  std::atomic<const char*> name{nullptr};
  std::atomic<std::int64_t> ts_ns{0};
  std::atomic<std::int64_t> dur_ns{0};
  std::atomic<std::int64_t> a{0};       ///< src world rank / mark arg
  std::atomic<std::int64_t> b{0};       ///< dst world rank / mark arg
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> flow{0};
  std::atomic<std::int32_t> pid{kHostTrack};
};

struct Ring {
  std::atomic<std::uint64_t> head{0};  ///< events ever written to this ring
  int tid = 0;
  std::unique_ptr<Slot[]> slots{new Slot[kFlightRingCapacity]};
};

struct RecorderState {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  int next_tid = 0;
  std::mutex path_mu;
  std::string dump_path;
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<bool> armed{true};
  std::atomic<std::uint64_t> next_flow{1};

  RecorderState() {
    if (const char* env = std::getenv("GREEM_FLIGHT_DUMP"); env && *env) dump_path = env;
  }
};

RecorderState& state() {
  static RecorderState* s = new RecorderState;  // leaked: outlive exiting threads
  return *s;
}

thread_local std::shared_ptr<Ring> tl_ring;
thread_local int tl_pid = kHostTrack;

Ring& my_ring() {
  if (!tl_ring) {
    tl_ring = std::make_shared<Ring>();
    RecorderState& s = state();
    std::lock_guard lock(s.mu);
    tl_ring->tid = s.next_tid++;
    s.rings.push_back(tl_ring);
  }
  return *tl_ring;
}

void record(RecKind rec, std::uint8_t frame, const char* name, std::int64_t ts_ns,
            std::int64_t dur_ns, std::int64_t a, std::int64_t b, std::uint64_t seq,
            std::uint64_t bytes, std::uint64_t flow) {
  RecorderState& s = state();
  if (!s.armed.load(std::memory_order_relaxed)) return;
  Ring& r = my_ring();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  Slot& slot = r.slots[h & (kFlightRingCapacity - 1)];
  const std::uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
  slot.stamp.store(stamp + 1, std::memory_order_release);  // odd: write in progress
  slot.rec.store(static_cast<std::uint8_t>(rec), std::memory_order_relaxed);
  slot.frame.store(frame, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.bytes.store(bytes, std::memory_order_relaxed);
  slot.flow.store(flow, std::memory_order_relaxed);
  slot.pid.store(tl_pid, std::memory_order_relaxed);
  slot.stamp.store(stamp + 2, std::memory_order_release);  // even: committed
  r.head.store(h + 1, std::memory_order_release);
  s.recorded.fetch_add(1, std::memory_order_relaxed);
}

struct Event {
  RecKind rec;
  FrameEventKind frame;
  const char* name;
  std::int64_t ts_ns;
  std::int64_t dur_ns;
  std::int64_t a;
  std::int64_t b;
  std::uint64_t seq;
  std::uint64_t bytes;
  std::uint64_t flow;
  int pid;
  int tid;
};

const char* frame_event_name(FrameEventKind k) {
  switch (k) {
    case FrameEventKind::kSend: return "parx/send";
    case FrameEventKind::kRetransmit: return "parx/retransmit";
    case FrameEventKind::kDeliver: return "parx/deliver";
    case FrameEventKind::kRecv: return "parx/recv";
    case FrameEventKind::kAck: return "parx/ack";
    case FrameEventKind::kDrop: return "parx/drop";
  }
  return "parx/frame";
}

/// Best-effort snapshot of every ring; slots concurrently rewritten are
/// dropped (stamp moved or odd).
std::vector<Event> collect() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RecorderState& s = state();
    std::lock_guard lock(s.mu);
    rings = s.rings;
  }
  std::vector<Event> out;
  for (const auto& rp : rings) {
    const Ring& r = *rp;
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, kFlightRingCapacity);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = r.slots[i & (kFlightRingCapacity - 1)];
      const std::uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1)) continue;
      Event e;
      e.rec = static_cast<RecKind>(slot.rec.load(std::memory_order_relaxed));
      e.frame = static_cast<FrameEventKind>(slot.frame.load(std::memory_order_relaxed));
      e.name = slot.name.load(std::memory_order_relaxed);
      e.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      e.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
      e.a = slot.a.load(std::memory_order_relaxed);
      e.b = slot.b.load(std::memory_order_relaxed);
      e.seq = slot.seq.load(std::memory_order_relaxed);
      e.bytes = slot.bytes.load(std::memory_order_relaxed);
      e.flow = slot.flow.load(std::memory_order_relaxed);
      e.pid = slot.pid.load(std::memory_order_relaxed);
      e.tid = r.tid;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != s1) continue;  // torn
      out.push_back(e);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) { return x.ts_ns < y.ts_ns; });
  return out;
}

}  // namespace

int set_trace_rank(int r) {
  const int prev = tl_pid;
  tl_pid = r;
  return prev;
}

int current_trace_rank() { return tl_pid; }

std::int64_t trace_now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch).count();
}

void Span::finish() {
  record(RecKind::kSpan, 0, name_, start_ns_, trace_now_ns() - start_ns_, 0, 0, 0, 0, 0);
}

std::uint64_t next_flow_id() {
  return state().next_flow.fetch_add(1, std::memory_order_relaxed);
}

void flight_record_frame(FrameEventKind kind, int src_world, int dst_world,
                         std::uint64_t seq, std::uint64_t bytes, std::uint64_t flow) {
  record(RecKind::kFrame, static_cast<std::uint8_t>(kind), frame_event_name(kind),
         trace_now_ns(), 0, src_world, dst_world, seq, bytes, flow);
}

void flight_record_mark(const char* name, std::int64_t a, std::int64_t b) {
  record(RecKind::kMark, 0, name, trace_now_ns(), 0, a, b, 0, 0, 0);
}

void set_flight_recorder_enabled(bool on) {
  state().armed.store(on, std::memory_order_relaxed);
}

bool flight_recorder_enabled() {
  return state().armed.load(std::memory_order_relaxed);
}

void set_flight_dump_path(std::string path) {
  RecorderState& s = state();
  std::lock_guard lock(s.path_mu);
  s.dump_path = std::move(path);
}

std::string flight_dump_path() {
  RecorderState& s = state();
  std::lock_guard lock(s.path_mu);
  return s.dump_path;
}

std::uint64_t flight_event_count() {
  return state().recorded.load(std::memory_order_relaxed);
}

void clear_trace() {
  RecorderState& s = state();
  std::lock_guard lock(s.mu);
  for (const auto& rp : s.rings) {
    for (std::size_t i = 0; i < kFlightRingCapacity; ++i) {
      Slot& slot = rp->slots[i];
      const std::uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
      if (stamp & 1) continue;           // writer inside: leave it be
      slot.stamp.store(0, std::memory_order_relaxed);
    }
    rp->head.store(0, std::memory_order_relaxed);
  }
  s.recorded.store(0, std::memory_order_relaxed);
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<Event> all = collect();

  std::ofstream os(path);
  if (!os) return false;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  // Track-name metadata: one process row per rank plus the host row.
  std::vector<int> pids;
  for (const Event& e : all)
    if (std::find(pids.begin(), pids.end(), e.pid) == pids.end()) pids.push_back(e.pid);
  std::sort(pids.begin(), pids.end());
  for (const int pid : pids) {
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value("process_name");
    w.key("pid").value(static_cast<std::int64_t>(pid));
    w.key("args").begin_object();
    w.key("name").value(pid == kHostTrack ? std::string("host")
                                          : "rank " + std::to_string(pid));
    w.end_object();
    w.end_object();
  }
  for (const Event& e : all) {
    const double ts_us = static_cast<double>(e.ts_ns) * 1e-3;
    switch (e.rec) {
      case RecKind::kSpan:
        w.begin_object();
        w.key("name").value(e.name ? e.name : "span");
        w.key("cat").value("greem");
        w.key("ph").value("X");
        w.key("ts").value(ts_us);
        w.key("dur").value(static_cast<double>(e.dur_ns) * 1e-3);
        w.key("pid").value(static_cast<std::int64_t>(e.pid));
        w.key("tid").value(static_cast<std::int64_t>(e.tid));
        w.end_object();
        break;
      case RecKind::kMark:
        w.begin_object();
        w.key("name").value(e.name ? e.name : "mark");
        w.key("cat").value("greem");
        w.key("ph").value("i");
        w.key("s").value("t");
        w.key("ts").value(ts_us);
        w.key("pid").value(static_cast<std::int64_t>(e.pid));
        w.key("tid").value(static_cast<std::int64_t>(e.tid));
        w.key("args").begin_object();
        w.key("a").value(e.a);
        w.key("b").value(e.b);
        w.end_object();
        w.end_object();
        break;
      case RecKind::kFrame: {
        // A short visible slice carrying the metadata; flow arrows need an
        // enclosing slice on the track to bind to.
        w.begin_object();
        w.key("name").value(e.name ? e.name : "parx/frame");
        w.key("cat").value("parx");
        w.key("ph").value("X");
        w.key("ts").value(ts_us);
        w.key("dur").value(1.0);  // 1 us marker slice
        w.key("pid").value(static_cast<std::int64_t>(e.pid));
        w.key("tid").value(static_cast<std::int64_t>(e.tid));
        w.key("args").begin_object();
        w.key("src").value(e.a);
        w.key("dst").value(e.b);
        w.key("seq").value(static_cast<std::int64_t>(e.seq));
        w.key("bytes").value(static_cast<std::int64_t>(e.bytes));
        w.key("flow").value(static_cast<std::int64_t>(e.flow));
        w.end_object();
        w.end_object();
        if (e.flow != 0 &&
            (e.frame == FrameEventKind::kSend || e.frame == FrameEventKind::kRecv)) {
          w.begin_object();
          w.key("name").value("msg");
          w.key("cat").value("parx");
          w.key("ph").value(e.frame == FrameEventKind::kSend ? "s" : "f");
          if (e.frame == FrameEventKind::kRecv) w.key("bp").value("e");
          w.key("id").value(static_cast<std::int64_t>(e.flow));
          w.key("ts").value(ts_us);
          w.key("pid").value(static_cast<std::int64_t>(e.pid));
          w.key("tid").value(static_cast<std::int64_t>(e.tid));
          w.end_object();
        }
        break;
      }
    }
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return static_cast<bool>(os);
}

bool dump_flight_recorder() {
  const std::string path = flight_dump_path();
  if (path.empty()) return false;
  return write_chrome_trace(path);
}

}  // namespace greem::telemetry

#endif  // GREEM_TELEMETRY_ENABLED
