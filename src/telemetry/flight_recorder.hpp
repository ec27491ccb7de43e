#pragma once
// Always-on, lock-free per-thread flight recorder: the one event store of
// the telemetry layer.
//
// Each thread owns a bounded ring of the most recent events it produced:
// finished spans (telemetry::Span, trace.hpp), parx transport frame events
// (send/retransmit/deliver/recv/ack/drop with seq, byte count and causal
// flow id), and watchdog/sentinel marks.  Recording is a handful of
// relaxed atomic stores guarded by a per-slot seqlock -- no mutex, no
// allocation, no formatting -- so it stays armed in production runs and the
// last kFlightRingCapacity events per thread are always available for
// post-mortem inspection.
//
// write_chrome_trace() (trace.hpp) freezes a best-effort snapshot (torn
// slots are skipped, not blocked on) into Chrome trace-format JSON.
// Matched send/recv events additionally emit "s"/"f" flow events sharing
// the message's flow id, which Perfetto renders as arrows between rank
// tracks.
//
// The recorder is dumped automatically when the hang watchdog fires, the
// invariant sentinel trips, or fault recovery runs (see transport.cpp,
// parallel_sim.cpp, comm.cpp); those sites use the module-level dump path
// (set_flight_dump_path / $GREEM_FLIGHT_DUMP) and stay silent when none is
// configured.
//
// With GREEM_TELEMETRY=OFF everything collapses to inline no-ops.

#include <cstdint>
#include <string>

#include "telemetry/telemetry.hpp"  // GREEM_TELEMETRY_ENABLED

namespace greem::telemetry {

/// Transport frame event kinds recorded by parx (docs/observability.md).
enum class FrameEventKind : std::uint8_t {
  kSend = 0,    ///< logical message stamped and handed to a path (tx side)
  kRetransmit,  ///< reliable-transport retransmission attempt
  kDeliver,     ///< frame accepted in order into the destination mailbox
  kRecv,        ///< message matched to a receive on the destination rank
  kAck,         ///< cumulative ack retired this frame at the sender
  kDrop,        ///< lossy link dropped the frame in flight
};

/// Events a single thread's ring holds; older events are overwritten.
inline constexpr std::size_t kFlightRingCapacity = 4096;

#if GREEM_TELEMETRY_ENABLED

/// Process-unique id stamped on a message at send time so its send and
/// recv events pair up as one Perfetto flow.  Never returns 0 (0 means
/// "unstamped").
std::uint64_t next_flow_id();

/// Record a transport frame event.  `seq` is the reliable-transport
/// sequence number (0 on the zero-copy fast path), `flow` the causal id
/// stamped at send time.
void flight_record_frame(FrameEventKind kind, int src_world, int dst_world,
                         std::uint64_t seq, std::uint64_t bytes, std::uint64_t flow);

/// Record an instant mark ("watchdog/fired", "sentinel/violation", ...).
/// `name` must have static storage duration; a/b are free-form integer
/// arguments preserved into the dump (typically rank and peer).
void flight_record_mark(const char* name, std::int64_t a = 0, std::int64_t b = 0);

/// Disarm/re-arm recording at runtime (armed by default); a disarmed
/// recorder drops spans, frame events and marks alike and keeps its rings.
/// Used by the bench_step overhead probe to measure the armed-vs-disarmed
/// delta.
void set_flight_recorder_enabled(bool on);
bool flight_recorder_enabled();

/// Module-level dump path used by the automatic triggers (watchdog,
/// sentinel, fault recovery) and the no-argument dump.  Empty (the
/// default) disables automatic dumps; initialised from $GREEM_FLIGHT_DUMP
/// when set.
void set_flight_dump_path(std::string path);
std::string flight_dump_path();

/// Total events recorded so far across all threads, including ones the
/// rings have since overwritten.
std::uint64_t flight_event_count();

/// write_chrome_trace() to the module-level path; false (and no I/O) when
/// none is configured.
bool dump_flight_recorder();

#else

inline std::uint64_t next_flow_id() { return 0; }
inline void flight_record_frame(FrameEventKind, int, int, std::uint64_t, std::uint64_t,
                                std::uint64_t) {}
inline void flight_record_mark(const char*, std::int64_t = 0, std::int64_t = 0) {}
inline void set_flight_recorder_enabled(bool) {}
inline bool flight_recorder_enabled() { return false; }
inline void set_flight_dump_path(std::string) {}
inline std::string flight_dump_path() { return {}; }
inline std::uint64_t flight_event_count() { return 0; }
inline bool dump_flight_recorder() { return false; }

#endif  // GREEM_TELEMETRY_ENABLED

}  // namespace greem::telemetry
