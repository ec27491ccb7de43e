#pragma once
// Low-overhead span tracer emitting Chrome trace-format JSON.
//
// A Span is an RAII scope; its constructor takes one steady-clock sample
// and its destructor writes a complete ("ph":"X") event into the calling
// thread's flight-recorder ring (flight_recorder.hpp) -- a few relaxed
// atomic stores, no locking, no formatting, and no allocation once the
// thread's ring exists.  The ring is the only store: write_chrome_trace()
// snapshots every thread's ring (spans together with transport frame
// events and marks) into a file that chrome://tracing and
// https://ui.perfetto.dev load directly.  A trace therefore holds the last
// kFlightRingCapacity events of each thread; a caller that wants one
// window calls clear_trace() at its start.
//
// Track identity: each event carries (pid, tid).  parx rank threads call
// set_trace_rank(r) so their spans land on a per-rank track ("rank r"
// process row in Perfetto); other threads default to the host track
// (pid kHostTrack).  tids are assigned per OS thread in ring registration
// order.
//
// Span names must be string literals (or otherwise outlive the tracer):
// only the pointer is stored.
//
// The functions declared here are implemented in flight_recorder.cpp,
// next to the ring.  With GREEM_TELEMETRY=OFF everything here is an empty
// inline no-op.

#include <cstdint>
#include <string>

#include "telemetry/telemetry.hpp"  // GREEM_TELEMETRY_ENABLED

namespace greem::telemetry {

/// pid used for spans recorded outside any parx rank.
inline constexpr int kHostTrack = -1;

#if GREEM_TELEMETRY_ENABLED

/// Route this thread's subsequent events to the track of world rank `r`
/// (kHostTrack restores the default).  Returns the previous setting so
/// scoped users can restore it.
int set_trace_rank(int r);

/// The rank track this thread currently records to (kHostTrack outside
/// parx rank threads).
int current_trace_rank();

/// Nanoseconds since the process-wide trace epoch -- the time base of
/// every span, frame event and mark, so events from different subsystems
/// line up in Perfetto.
std::int64_t trace_now_ns();

/// RAII complete-event span.  `name` must have static storage duration.
class Span {
 public:
  explicit Span(const char* name) : name_(name), start_ns_(trace_now_ns()) {}
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span early (destructor becomes a no-op).
  void end() {
    if (name_) finish();
    name_ = nullptr;
  }

 private:
  void finish();

  const char* name_;
  std::int64_t start_ns_;
};

/// Snapshot every thread's ring into Chrome trace-format JSON
/// ({"traceEvents": [...]}) at `path`.  Returns false on I/O failure.
/// Spans still open are not included.  Safe to call while other threads
/// record: slots being rewritten during the snapshot are skipped.
bool write_chrome_trace(const std::string& path);

/// Discard every buffered event (rings stay registered, the flight event
/// count resets).
void clear_trace();

#else

inline int set_trace_rank(int) { return kHostTrack; }
inline int current_trace_rank() { return kHostTrack; }
inline std::int64_t trace_now_ns() { return 0; }

class Span {
 public:
  explicit Span(const char*) {}
  void end() {}
};

inline bool write_chrome_trace(const std::string&) { return false; }
inline void clear_trace() {}

#endif  // GREEM_TELEMETRY_ENABLED

}  // namespace greem::telemetry
