#pragma once
// Traffic ledger and congestion cost model.
//
// The paper's relay mesh method is a communication-structure result: with a
// global MPI_Alltoallv, each FFT process receives slabs from ~p^(2/3)
// senders (~4000 on the full K computer) and the network congests at those
// endpoints.  Running on one host we cannot observe real network
// congestion, so every point-to-point payload is recorded here and a simple
// endpoint-serialization model converts the record into a modeled
// communication time:
//
//   cost(endpoint) = sum over its messages of (latency + bytes / bandwidth)
//   model_time     = max over all endpoints of max(incoming, outgoing cost)
//
// This reproduces the phenomenon the paper measures: the direct conversion
// concentrates O(p^(2/3)) incoming messages on each FFT process, while the
// relay method splits the conversion into two local steps whose endpoint
// loads are ~group-size and ~#groups respectively.
//
// Per-phase accounting: the ledger's counters are *monotonic*.  To
// attribute traffic to a phase, take an Epoch (begin_phase) and read its
// delta() -- a snapshot-diff -- instead of calling the legacy reset()
// between phases.  Epochs from consecutive boundaries telescope: their
// deltas always sum exactly to the ledger totals over the same interval,
// and no message is ever lost at a boundary.
//
// Quiescence contract (what snapshot-diff does NOT fix): a message is
// counted when its *send* executes, so if other ranks are still inside a
// phase when this rank snapshots, their in-flight sends land in the next
// epoch's delta.  Exact per-phase attribution therefore still requires
// phase boundaries to be globally quiescent (e.g. after a barrier);
// without one, only the boundary attribution blurs -- totals stay exact.
//
// Nonblocking draining does not change any count: alltoallv now posts all
// transfers up front and drains them in arrival order
// (docs/transport-fastpath.md), but each message is still recorded exactly
// once, at post time, with the same (src, dst, bytes) it always had -- the
// ledger cannot tell the arrival-order drain from the old fixed-order
// receive loop.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace greem::parx {

/// Per-endpoint serialization parameters (defaults roughly model a
/// Tofu-class interconnect link: 5 us latency, 5 GB/s per link).
struct CongestionModel {
  double latency_s = 5e-6;
  double bandwidth_Bps = 5e9;
};

struct TrafficTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_in_messages = 0;   ///< busiest receiver, message count
  std::uint64_t max_in_bytes = 0;      ///< busiest receiver, byte count
  std::uint64_t max_out_messages = 0;  ///< busiest sender, message count
  std::uint64_t max_out_bytes = 0;     ///< busiest sender, byte count
  // Transport retransmissions, accounted separately from logical traffic
  // so algorithmic communication-volume comparisons stay meaningful under
  // an injected lossy link.
  std::uint64_t retransmit_messages = 0;
  std::uint64_t retransmit_bytes = 0;
};

/// Per-endpoint traffic counts captured at (or between) points in time.
/// Obtained from TrafficLedger::counts() or Epoch::delta(); supports the
/// same aggregations as the live ledger, plus subtraction.
struct TrafficCounts {
  std::vector<std::uint64_t> in_msgs, in_bytes, out_msgs, out_bytes;

  std::size_t world_size() const { return in_msgs.size(); }
  TrafficTotals totals() const;
  double model_time(const CongestionModel& m = {}) const;

  /// Element-wise accumulate (a default-constructed lhs adopts `o`), so
  /// per-phase deltas from several cycles can be summed over a step.
  TrafficCounts& operator+=(const TrafficCounts& o);
};

/// Element-wise `later - earlier`; both must come from the same ledger.
TrafficCounts operator-(const TrafficCounts& later, const TrafficCounts& earlier);

/// Thread-safe accumulator of point-to-point traffic, indexed by world rank.
class TrafficLedger {
 public:
  explicit TrafficLedger(std::size_t world_size);

  /// Record one payload message src -> dst of `bytes` bytes.
  void record(int src_world, int dst_world, std::size_t bytes);

  /// Record one transport retransmission src -> dst.  Kept out of the
  /// per-endpoint logical counters (and out of counts()/model_time());
  /// shows up only in TrafficTotals::retransmit_*.
  void record_retransmit(int src_world, int dst_world, std::size_t bytes);

  /// Legacy: clear all counters.  Must not race with record(); call from a
  /// quiescent point.  Prefer begin_phase()/Epoch, which needs no global
  /// mutation at all.  Note reset() invalidates outstanding Epochs (their
  /// deltas would go negative); do not mix the two styles in one phase.
  void reset();

  TrafficTotals totals() const;

  /// Atomic snapshot of the monotonic per-endpoint counters.
  TrafficCounts counts() const;

  /// A named epoch: captures counts() at creation; delta() is the traffic
  /// recorded since.  Purely observational -- taking an epoch never
  /// mutates the ledger, so any number of concurrent observers is safe.
  /// See the header comment for the boundary-quiescence contract.
  class Epoch {
   public:
    const std::string& name() const { return name_; }
    TrafficCounts delta() const { return ledger_->counts() - start_; }
    TrafficTotals totals() const { return delta().totals(); }
    double model_time(const CongestionModel& m = {}) const { return delta().model_time(m); }

   private:
    friend class TrafficLedger;
    Epoch(const TrafficLedger* ledger, std::string name)
        : ledger_(ledger), name_(std::move(name)), start_(ledger->counts()) {}

    const TrafficLedger* ledger_;
    std::string name_;
    TrafficCounts start_;
  };

  /// Open a named epoch starting now.
  Epoch begin_phase(std::string name) const { return Epoch(this, std::move(name)); }

  /// Modeled wall-clock time of the recorded communication phase under the
  /// endpoint-serialization model described above.
  double model_time(const CongestionModel& m = {}) const;

  std::size_t world_size() const { return in_msgs_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint64_t> in_msgs_, in_bytes_, out_msgs_, out_bytes_;
  std::uint64_t retransmit_msgs_ = 0, retransmit_bytes_ = 0;
};

}  // namespace greem::parx
