#pragma once
// In-process message-passing communicator.
//
// `parx` is the repository's stand-in for MPI: ranks are threads inside one
// process, and `Comm` exposes the subset of MPI the paper's code relies on
// (named in §II-B): point-to-point send/recv, `split` (MPI_Comm_split),
// `alltoallv`, `reduce`, `bcast`, plus barrier/gather/allgather/allreduce.
//
// Semantics:
//  * send() is buffered and never blocks (an MPI_Isend with an unbounded
//    buffer); recv() blocks until a matching (src, tag) message arrives.
//  * Messages between a fixed (src, tag) pair are delivered in order.
//    Nonblocking receives (irecv) join the same matching discipline:
//    receives are matched to messages in posting order per (src, tag).
//  * Collectives are implemented on top of point-to-point with the textbook
//    algorithms (binomial-tree reduce/bcast, flat gather, pairwise
//    alltoallv), so the traffic ledger records a realistic message pattern.
//    Every collective entry draws a per-rank sequence number that selects
//    its message tag, so collectives in flight concurrently on the same
//    communicator (e.g. a posted ialltoallv under a later reduce) cannot
//    cross payloads.  See docs/transport-fastpath.md.
//  * Zero-byte payloads are not transferred and not recorded; payload sizes
//    are agreed out of band (exchange_sizes uses shared memory, modeling
//    MPI's envelope metadata).
//  * Zero-copy fast path: ranks are threads, so when the destination link
//    is not covered by an installed lossy plan, sends move buffer
//    *ownership* into the destination mailbox -- no frame header, no
//    CRC, no copy for the rvalue overloads (send(vector&&), rvalue
//    alltoallv), one typed copy for span sends.  Links a FaultPlan names
//    go through the framed ReliableTransport instead; the partition is
//    computed once at plan-install time (docs/transport-fastpath.md).
//    Both paths preserve per-(src, tag) FIFO order and are bitwise
//    indistinguishable to the application.
//
// All recorded traffic is attributed to *world* ranks, so ledger statistics
// remain meaningful inside split communicators.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "parx/buf.hpp"
#include "parx/fault.hpp"
#include "parx/traffic.hpp"
#include "telemetry/trace.hpp"

namespace greem::parx {

namespace detail {
struct Group;
struct RequestState;
}

/// Default deadline of the blocking operations: wait forever.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Handle to one nonblocking operation (isend/irecv).  Cheap to copy;
/// copies share the operation.  Completion is observed through
/// Comm::test/wait/wait_any/wait_all; a completed receive surrenders its
/// payload exactly once through take_bytes()/take<T>().
class Request {
 public:
  Request() = default;  ///< Invalid (never-completing) request.

  bool valid() const { return st_ != nullptr; }
  /// Completion peek without driving progress; use Comm::test to also
  /// match freshly arrived messages.
  bool done() const;

  /// Move the completed receive payload out (valid exactly once, after
  /// completion).  Sends carry no payload.
  std::vector<std::byte> take_bytes();

  /// Zero-copy when the sender handed over a vector<T> (fast path);
  /// one memcpy otherwise.
  template <class T>
  std::vector<T> take() {
    static_assert(std::is_trivially_copyable_v<T>);
    return take_buf().take<T>();
  }

 private:
  friend class Comm;
  Buf take_buf();
  std::shared_ptr<detail::RequestState> st_;
};

/// In-flight personalized all-to-all posted by Comm::ialltoallv.  `out`
/// is indexed by source rank and filled as payloads land (the self slice
/// is copied at post time); drain with Comm::wait_alltoallv.
template <class T>
struct AlltoallvHandle {
  std::vector<std::vector<T>> out;
  std::vector<Request> reqs;   ///< pending receives, posting order
  std::vector<int> src_of;     ///< reqs[i] receives from rank src_of[i]
};

class Comm {
 public:
  Comm() = default;  ///< Invalid communicator; only for default construction.
  Comm(std::shared_ptr<detail::Group> group, int rank);

  bool valid() const { return group_ != nullptr; }
  int rank() const { return rank_; }
  int size() const;

  /// Rank of this process in the world communicator.
  int world_rank() const;
  /// World rank of local rank r in this communicator.
  int world_rank_of(int r) const;

  /// Synchronize all ranks of this communicator.  With a finite
  /// `timeout_s`, throws TimeoutError if the barrier has not completed
  /// within that many seconds (the arrival count is then stale until the
  /// next fault_recover).
  void barrier(double timeout_s = kNoDeadline);

  /// Collective over the whole job (call on the *world* communicator from
  /// every rank) after catching a CommError: rendezvous all ranks, then
  /// drain mailboxes, reset barriers, split staging and transport state in
  /// every live group, and clear the fault flag.  On return the
  /// communicator stack is as-new; the caller is responsible for restoring
  /// application state (e.g. from a checkpoint).  Throws JobPoisoned if a
  /// sibling rank died fatally instead of joining the recovery, and
  /// RecoveryTimeout (not a CommError) if the rendezvous itself does not
  /// complete within `timeout_s` seconds.
  void fault_recover(double timeout_s = 60.0);

  /// Collective: partition ranks by `color`; order within each new
  /// communicator by (key, old rank).  Mirrors MPI_Comm_split.
  Comm split(int color, int key);

  TrafficLedger& ledger();

  // ---- byte-level primitives ----
  void send_bytes(int dst, int tag, const void* data, std::size_t n);
  /// Blocking receive.  With a finite `timeout_s`, throws TimeoutError if
  /// no matching message arrives within that many seconds.
  std::vector<std::byte> recv_bytes(int src, int tag, double timeout_s = kNoDeadline);

  /// Collective: every rank announces the payload size it will send to each
  /// peer; returns the sizes this rank will receive from each peer.
  /// Implemented via shared memory (models envelope/metadata exchange) and
  /// therefore not charged to the traffic ledger.
  std::vector<std::size_t> exchange_sizes(std::span<const std::size_t> to_each);

  // ---- nonblocking point-to-point ----

  /// Nonblocking send.  parx sends are buffered, so the returned request
  /// is already complete; it exists so send/recv sets can be waited
  /// uniformly.  Traffic is recorded at post time, like send_bytes.
  Request isend(int dst, int tag, const void* data, std::size_t n);

  template <class T>
  Request isend(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag, data);
    return completed_send(dst, tag);
  }

  /// Nonblocking move-send: on the fast path the vector's allocation is
  /// handed to the receiver without a copy.  The vector is consumed either
  /// way.
  template <class T>
  Request isend(int dst, int tag, std::vector<T>&& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag, std::move(data));
    return completed_send(dst, tag);
  }

  /// Post a nonblocking receive for (src, tag).  Matching is FIFO per
  /// (src, tag) against both earlier-posted receives and queued messages,
  /// so mixing irecv and blocking recv on one pair stays ordered.
  Request irecv(int src, int tag);

  /// Drive matching and report completion without blocking.
  bool test(Request& req);

  /// Block until `req` completes.  TimeoutError cancels the request (a
  /// late message is then left for the next matching receive).
  void wait(Request& req, double timeout_s = kNoDeadline);

  /// Block until some request completes; returns its index and claims it
  /// (a claimed request is never returned again).  Throws TimeoutError
  /// without cancelling anything -- the caller may wait again.  All
  /// requests must belong to this communicator.
  int wait_any(std::span<Request> reqs, double timeout_s = kNoDeadline);

  /// Block until every request completes.
  void wait_all(std::span<Request> reqs, double timeout_s = kNoDeadline);

  // ---- typed point-to-point (trivially-copyable payloads only) ----

  /// The caller keeps `data`; the fast path makes one typed copy (whose
  /// allocation the receiver's take<T>() then adopts move-for-free).
  template <class T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!send_framed(dst, tag, data.data(), data.size_bytes()))
      deliver_local(dst, tag, Buf::adopt(std::vector<T>(data.begin(), data.end())));
  }

  /// Move-send: zero-copy ownership handoff on the fast path.  The vector
  /// is consumed (left empty) on every path, so callers cannot observe
  /// which path ran.
  template <class T>
  void send(int dst, int tag, std::vector<T>&& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!send_framed(dst, tag, data.data(), data.size() * sizeof(T)))
      deliver_local(dst, tag, Buf::adopt(std::move(data)));
    else
      data.clear();
  }

  template <class T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_buf(src, tag, kNoDeadline).take<T>();
  }

  // ---- collectives ----

  /// Post a personalized all-to-all: sizes are agreed and sends go out
  /// immediately (buffered), receives are posted but not drained, so the
  /// caller can compute while payloads arrive.  The exchange runs under
  /// its own sequenced tag and may stay in flight across later
  /// collectives on this communicator.
  template <class T>
  AlltoallvHandle<T> ialltoallv(const std::vector<std::vector<T>>& send_to) {
    static_assert(std::is_trivially_copyable_v<T>);
    telemetry::Span span("parx/ialltoallv");
    fault_point(FaultOp::kCollective);
    const int tag = next_collective_tag();
    const auto p = static_cast<std::size_t>(size());
    std::vector<std::size_t> sizes(p);
    for (std::size_t j = 0; j < p; ++j) sizes[j] = send_to[j].size() * sizeof(T);
    auto from_each = exchange_sizes(sizes);

    const auto me = static_cast<std::size_t>(rank_);
    AlltoallvHandle<T> h;
    h.out.resize(p);
    h.out[me] = send_to[me];  // self-transfer stays local, no message
    // Skewed destination order keeps the instantaneous pattern balanced.
    for (std::size_t k = 1; k < p; ++k) {
      std::size_t dst = (me + k) % p;
      if (!send_to[dst].empty())
        send(static_cast<int>(dst), tag, std::span<const T>(send_to[dst]));
    }
    for (std::size_t k = 1; k < p; ++k) {
      std::size_t src = (me + k) % p;
      if (from_each[src] > 0) {
        h.reqs.push_back(irecv(static_cast<int>(src), tag));
        h.src_of.push_back(static_cast<int>(src));
      }
    }
    return h;
  }

  /// Move-posting all-to-all: each per-destination slice is handed over
  /// (zero-copy on the fast path, self slice moved, no slice copied).
  /// `send_to` is consumed.
  template <class T>
  AlltoallvHandle<T> ialltoallv(std::vector<std::vector<T>>&& send_to) {
    static_assert(std::is_trivially_copyable_v<T>);
    telemetry::Span span("parx/ialltoallv");
    fault_point(FaultOp::kCollective);
    const int tag = next_collective_tag();
    const auto p = static_cast<std::size_t>(size());
    std::vector<std::size_t> sizes(p);
    for (std::size_t j = 0; j < p; ++j) sizes[j] = send_to[j].size() * sizeof(T);
    auto from_each = exchange_sizes(sizes);

    const auto me = static_cast<std::size_t>(rank_);
    AlltoallvHandle<T> h;
    h.out.resize(p);
    h.out[me] = std::move(send_to[me]);  // self-transfer stays local, no message
    for (std::size_t k = 1; k < p; ++k) {
      std::size_t dst = (me + k) % p;
      if (!send_to[dst].empty())
        send(static_cast<int>(dst), tag, std::move(send_to[dst]));
    }
    for (std::size_t k = 1; k < p; ++k) {
      std::size_t src = (me + k) % p;
      if (from_each[src] > 0) {
        h.reqs.push_back(irecv(static_cast<int>(src), tag));
        h.src_of.push_back(static_cast<int>(src));
      }
    }
    return h;
  }

  /// Drain an in-flight all-to-all in arrival order (wait_any): whichever
  /// payload lands first is unpacked first, so a slow peer stalls nothing
  /// but its own slice.  `out` is indexed by source, so arrival order
  /// changes only the stall pattern, never the result.
  template <class T>
  std::vector<std::vector<T>> wait_alltoallv(AlltoallvHandle<T>& h,
                                             double timeout_s = kNoDeadline) {
    for (std::size_t remaining = h.reqs.size(); remaining > 0; --remaining) {
      const int i = wait_any(std::span<Request>(h.reqs), timeout_s);
      h.out[static_cast<std::size_t>(h.src_of[static_cast<std::size_t>(i)])] =
          h.reqs[static_cast<std::size_t>(i)].template take<T>();
    }
    return std::move(h.out);
  }

  /// Personalized all-to-all with per-destination payloads; returns the
  /// payload received from each source (empty vectors allowed both ways).
  template <class T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& send_to) {
    telemetry::Span span("parx/alltoallv");
    auto h = ialltoallv(send_to);
    return wait_alltoallv(h);
  }

  /// Move variant: consumes `send_to`, handing every slice over without a
  /// copy on the fast path.
  template <class T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>>&& send_to) {
    telemetry::Span span("parx/alltoallv");
    auto h = ialltoallv(std::move(send_to));
    return wait_alltoallv(h);
  }

  /// Broadcast `v` (contents and size) from root to all ranks
  /// (binomial tree, log2(p) rounds).
  template <class T>
  void bcast(std::vector<T>& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    if (p == 1) return;
    telemetry::Span span("parx/bcast");
    fault_point(FaultOp::kCollective);
    const int tag = next_collective_tag();
    const int vr = (rank_ - root + p) % p;
    int mask = 1;
    while (mask < p) {
      if (vr & mask) {
        int src = (vr - mask + root) % p;
        v = recv<T>(src, tag);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    for (; mask > 0; mask >>= 1) {
      if (vr + mask < p) {
        int dst = (vr + mask + root) % p;
        send(dst, tag, std::span<const T>(v));
      }
    }
  }

  /// Element-wise reduce of `inout` into root with a binary op (binomial
  /// tree).  The root's `inout` receives the result; every other rank's
  /// buffer is left untouched (it is a pure send buffer, matching
  /// MPI_Reduce).  The tree accumulates into this communicator's per-rank
  /// scratch slot, so a steady-state reduce allocates no working copy.
  template <class T, class Op>
  void reduce(std::span<T> inout, int root, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    telemetry::Span span("parx/reduce");
    fault_point(FaultOp::kCollective);
    const int tag = next_collective_tag();
    const int p = size();
    const int vr = (rank_ - root + p) % p;
    const std::size_t n = inout.size();
    T* acc = reinterpret_cast<T*>(coll_scratch(inout.size_bytes()));
    if (n > 0) std::memcpy(acc, inout.data(), inout.size_bytes());
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vr & mask) {
        int dst = (vr - mask + root) % p;
        send(dst, tag, std::span<const T>(acc, n));
        break;
      }
      if (vr + mask < p) {
        int src = (vr + mask + root) % p;
        auto part = recv<T>(src, tag);
        for (std::size_t i = 0; i < n; ++i) acc[i] = op(acc[i], part[i]);
      }
    }
    if (rank_ == root && n > 0) std::memcpy(inout.data(), acc, inout.size_bytes());
  }

  template <class T>
  void reduce_sum(std::span<T> inout, int root) {
    reduce(inout, root, [](T a, T b) { return a + b; });
  }

  /// Broadcast the contents of `v` from root into every rank's `v` (size
  /// must already agree on all ranks).  The fixed-size sibling of bcast:
  /// no vector round trip, receives land straight in the caller's buffer.
  template <class T>
  void bcast_span(std::span<T> v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    if (p == 1) return;
    telemetry::Span span("parx/bcast");
    fault_point(FaultOp::kCollective);
    const int tag = next_collective_tag();
    const int vr = (rank_ - root + p) % p;
    int mask = 1;
    while (mask < p) {
      if (vr & mask) {
        int src = (vr - mask + root) % p;
        Buf b = recv_buf(src, tag, kNoDeadline);
        if (!v.empty()) std::memcpy(v.data(), b.data(), v.size_bytes());
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    for (; mask > 0; mask >>= 1) {
      if (vr + mask < p) {
        int dst = (vr + mask + root) % p;
        send(dst, tag, std::span<const T>(v.data(), v.size()));
      }
    }
  }

  template <class T, class Op>
  void allreduce(std::span<T> inout, Op op) {
    reduce(inout, 0, op);
    bcast_span(inout, 0);
  }

  template <class T>
  void allreduce_sum(std::span<T> inout) {
    allreduce(inout, [](T a, T b) { return a + b; });
  }

  template <class T>
  T allreduce_sum(T v) {
    allreduce_sum(std::span<T>(&v, 1));
    return v;
  }

  template <class T>
  T allreduce_max(T v) {
    allreduce(std::span<T>(&v, 1), [](T a, T b) { return a > b ? a : b; });
    return v;
  }

  template <class T>
  T allreduce_min(T v) {
    allreduce(std::span<T>(&v, 1), [](T a, T b) { return a < b ? a : b; });
    return v;
  }

  /// Gather variable-size contributions; root receives the concatenation in
  /// rank order (others receive an empty vector).
  template <class T>
  std::vector<T> gatherv(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    telemetry::Span span("parx/gatherv");
    fault_point(FaultOp::kCollective);
    const int tag = next_collective_tag();
    const auto p = static_cast<std::size_t>(size());
    std::vector<std::size_t> sizes(p, 0);
    if (rank_ != root) sizes[static_cast<std::size_t>(root)] = mine.size_bytes();
    auto from_each = exchange_sizes(sizes);
    if (rank_ != root) {
      if (!mine.empty()) send(root, tag, mine);
      return {};
    }
    std::vector<T> out;
    for (std::size_t r = 0; r < p; ++r) {
      if (static_cast<int>(r) == rank_) {
        out.insert(out.end(), mine.begin(), mine.end());
      } else if (from_each[r] > 0) {
        auto part = recv<T>(static_cast<int>(r), tag);
        out.insert(out.end(), part.begin(), part.end());
      }
    }
    return out;
  }

  /// All ranks receive the rank-ordered concatenation of all contributions.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> mine) {
    auto all = gatherv(mine, 0);
    bcast(all, 0);
    return all;
  }

 private:
  /// Common send prologue (fault point, ledger record) plus the framed
  /// branch: hands the message to the ReliableTransport when the sender's
  /// links are covered by the installed lossy plan and returns true.
  /// Returns false when the message should take the zero-copy fast path
  /// (the caller then builds a Buf and calls deliver_local).
  bool send_framed(int dst, int tag, const void* data, std::size_t n);

  /// Fast-path delivery: move the payload straight into the destination
  /// mailbox.
  void deliver_local(int dst, int tag, Buf&& payload);

  /// Blocking receive returning the owning buffer (typed take<T>() on the
  /// result is zero-copy when the sender adopted a vector<T>).
  Buf recv_buf(int src, int tag, double timeout_s);

  /// This rank's slot of the communicator's reusable collective working
  /// buffer, grown to at least `bytes`.
  std::byte* coll_scratch(std::size_t bytes);

  /// A born-complete send request (parx sends are buffered).
  Request completed_send(int dst, int tag);

  /// Injection point at a Comm operation entry: throws RemoteFault when a
  /// sibling's fault is pending, JobPoisoned when a sibling died fatally,
  /// FaultInjected when this rank's context matches an armed FaultSpec.
  void fault_point(FaultOp op);
  /// The flag checks of fault_point alone (polled while blocked).
  void check_abort() const;

  /// Draw this rank's next collective sequence number and fold it into a
  /// negative tag (application tags are non-negative).  Called exactly
  /// once per collective entry on every rank, so SPMD call order keeps
  /// the tags in agreement; the window bounds how many collectives may
  /// be in flight concurrently on one communicator.
  int next_collective_tag();

  static constexpr int kCollTagBase = -101;
  static constexpr std::uint32_t kCollSeqWindow = 4096;

  /// Core of wait/wait_any/wait_all: block on this rank's mailbox until
  /// `ready` (called under the mailbox lock, after matching) returns
  /// true.  Restamps the watchdog whenever the arrival counter moves.
  template <class Ready>
  void wait_until(Ready&& ready, double timeout_s, const char* opname, int peer_world);

  std::shared_ptr<detail::Group> group_;
  int rank_ = -1;
};

}  // namespace greem::parx
