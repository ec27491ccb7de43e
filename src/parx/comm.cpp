#include "parx/comm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <tuple>

#include "parx/group.hpp"
#include "parx/transport.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/live_endpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace greem::parx {

using detail::BlockedScope;
using detail::Group;
using detail::JobPoisoned;
using detail::Message;
using detail::steady_seconds;

namespace {

/// Absolute steady-clock deadline of a relative timeout.
double deadline_of(double timeout_s) {
  return timeout_s == kNoDeadline ? kNoDeadline : steady_seconds() + timeout_s;
}

/// Deliver queued messages to posted receives.  Caller holds box.mu.
/// Messages are scanned in arrival order and each goes to the
/// earliest-posted live matching request; since both queues are FIFO per
/// (src, tag), this preserves parx's in-order delivery guarantee.
void match_pending(detail::Mailbox& box) {
  if (box.pending.empty()) return;
  auto msg = box.msgs.begin();
  while (msg != box.msgs.end()) {
    detail::RequestState* hit = nullptr;
    for (auto& st : box.pending) {
      if (!st->cancelled && !st->done.load(std::memory_order_relaxed) &&
          st->peer == msg->src && st->tag == msg->tag) {
        hit = st.get();
        break;
      }
    }
    if (!hit) {
      ++msg;
      continue;
    }
    if (msg->flow != 0) {
      // Close the causal trace on the receiver thread: the flight
      // recorder's recv event pairs with the send-side event through the
      // flow id, and the delivery latency feeds the registry histogram.
      telemetry::flight_record_frame(telemetry::FrameEventKind::kRecv, msg->src_world,
                                     telemetry::current_trace_rank(), /*seq=*/0,
                                     msg->payload.size(), msg->flow);
      static telemetry::Histogram& lat =
          telemetry::Registry::global().histogram("parx/recv_latency_s");
      const std::int64_t now = telemetry::trace_now_ns();
      lat.record(static_cast<double>(now > msg->sent_ns ? now - msg->sent_ns : 0) * 1e-9);
    }
    hit->payload = std::move(msg->payload);
    hit->done.store(true, std::memory_order_release);
    msg = box.msgs.erase(msg);
  }
  while (!box.pending.empty() &&
         (box.pending.front()->cancelled ||
          box.pending.front()->done.load(std::memory_order_relaxed)))
    box.pending.pop_front();
}

}  // namespace

bool Request::done() const { return st_ && st_->done.load(std::memory_order_acquire); }

Buf Request::take_buf() {
  assert(st_ && st_->done.load(std::memory_order_acquire));
  return std::move(st_->payload);
}

std::vector<std::byte> Request::take_bytes() { return take_buf().take<std::byte>(); }

Comm::Comm(std::shared_ptr<Group> group, int rank) : group_(std::move(group)), rank_(rank) {}

int Comm::size() const { return group_->size; }

int Comm::world_rank() const { return group_->world_ranks[static_cast<std::size_t>(rank_)]; }

int Comm::world_rank_of(int r) const { return group_->world_ranks[static_cast<std::size_t>(r)]; }

TrafficLedger& Comm::ledger() { return *group_->job->ledger; }

void Comm::check_abort() const {
  detail::JobState& job = *group_->job;
  if (job.poisoned.load(std::memory_order_relaxed)) throw JobPoisoned{};
  if (job.fault.load(std::memory_order_relaxed)) throw RemoteFault(job.take_reason());
}

void Comm::fault_point(FaultOp op) {
  check_abort();
  detail::JobState& job = *group_->job;
  FaultInjector* injector = job.injector_hot.load(std::memory_order_acquire);
  if (!injector) return;
  if (auto spec = injector->should_fire(world_rank(), op, fault_context())) {
    if (spec->kind == FaultKind::kHang) {
      // The rank freezes here -- no throw, no flag -- until the watchdog
      // (or a sibling's fault) raises the job flag, at which point
      // check_abort converts the hang into a recoverable RemoteFault.
      BlockedScope blocked(job, world_rank(), "hang", -1);
      for (;;) {
        check_abort();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    // Raise the job-wide flag first so siblings blocked in recv/barrier
    // notice within one poll interval.
    job.fault.store(true, std::memory_order_relaxed);
    throw FaultInjected(*spec);
  }
}

void Comm::fault_recover(double timeout_s) {
  telemetry::Span span("parx/fault_recover");
  detail::JobState& job = *group_->job;
  const double deadline = deadline_of(timeout_s);
  std::vector<std::shared_ptr<Group>> deferred;
  {
    std::unique_lock lock(job.recover_mu);
    const std::uint64_t gen = job.recover_gen;
    if (++job.recover_arrived == job.nranks) {
      // Last rank in: every sibling is parked in this rendezvous, so no
      // rank is inside any Comm operation and group state can be reset.
      {
        std::lock_guard groups_lock(job.groups_mu);
        for (Group* g : job.groups) g->reset_comm_state(deferred);
      }
      if (auto t = job.transport_ref()) t->reset();
      std::string reason;
      {
        std::lock_guard reason_lock(job.reason_mu);
        reason = std::move(job.fault_reason);
        job.fault_reason.clear();
      }
      // Post-mortem hooks: keep the evidence of what led into recovery
      // (dump only when a flight-dump path is configured) and tell any
      // live-endpoint client the job is recovering.
      telemetry::flight_record_mark("parx/fault_recover", world_rank());
      telemetry::dump_flight_recorder();
      telemetry::LiveEndpoint::global().publish_event("fault_recover", reason);
      job.fault.store(false, std::memory_order_relaxed);
      job.recover_arrived = 0;
      ++job.recover_gen;
      job.recover_cv.notify_all();
    } else {
      while (job.recover_gen == gen) {
        if (job.poisoned.load(std::memory_order_relaxed)) throw JobPoisoned{};
        if (steady_seconds() >= deadline) {
          // Leaving a stale arrival behind would wedge the next recovery,
          // and a rank that skips recovery is gone for good: poison.
          --job.recover_arrived;
          job.poisoned.store(true, std::memory_order_relaxed);
          throw RecoveryTimeout("parx: fault_recover rendezvous timed out on rank " +
                                std::to_string(world_rank()));
        }
        job.recover_cv.wait_for(lock, std::chrono::milliseconds(50));
      }
    }
  }
  // Groups orphaned from split staging die here, outside both locks (their
  // destructors re-take groups_mu to unregister).
  deferred.clear();
}

void Comm::barrier(double timeout_s) {
  telemetry::Span span("parx/barrier");
  fault_point(FaultOp::kCollective);
  BlockedScope blocked(*group_->job, world_rank(), "barrier", -1);
  const double deadline = deadline_of(timeout_s);
  group_->barrier.wait([&] {
    check_abort();
    if (steady_seconds() >= deadline)
      throw TimeoutError("parx: barrier timed out on rank " + std::to_string(world_rank()));
  });
}

bool Comm::send_framed(int dst, int tag, const void* data, std::size_t n) {
  assert(dst >= 0 && dst < group_->size && dst != rank_);
  fault_point(FaultOp::kSend);
  detail::JobState& job = *group_->job;
  // Logical traffic is recorded here, before the path branch, so the
  // ledger's accounting is identical across fast-path/framed/lossy runs
  // by construction.
  job.ledger->record(world_rank(), world_rank_of(dst), n);
  if (ReliableTransport* t = job.transport_hot.load(std::memory_order_acquire)) {
    if (t->framed(world_rank())) {
      // This sender's links are covered by the installed lossy plan:
      // frame the message and hand it to the reliability sublayer
      // (seq + CRC + ack/retransmit).  Still never blocks.
      t->send(*group_, rank_, dst, tag, data, n);
      return true;
    }
    // Transport installed but this sender's links are all clean: count the
    // bypass (cached ref; registry lookup is a mutexed map, not hot-path).
    static telemetry::Counter& fastpath =
        telemetry::Registry::global().counter("parx/fastpath_messages");
    fastpath.add(1);
  }
  return false;
}

void Comm::deliver_local(int dst, int tag, Buf&& payload) {
  Message m{rank_, tag, std::move(payload)};
  if constexpr (telemetry::enabled()) {
    // Stamp the causal trace at hand-off: the fast path has no frame, so
    // this is where the flow id is born (seq stays 0).
    m.src_world = world_rank();
    m.flow = telemetry::next_flow_id();
    m.sent_ns = telemetry::trace_now_ns();
    telemetry::flight_record_frame(telemetry::FrameEventKind::kSend, m.src_world,
                                   world_rank_of(dst), /*seq=*/0, m.payload.size(), m.flow);
  }
  auto& box = *group_->boxes[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lock(box.mu);
    box.msgs.push_back(std::move(m));
    ++box.delivered;
  }
  box.cv.notify_all();
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t n) {
  if (!send_framed(dst, tag, data, n)) deliver_local(dst, tag, Buf(data, n));
}

std::byte* Comm::coll_scratch(std::size_t bytes) {
  auto& slot = group_->coll_scratch[static_cast<std::size_t>(rank_)];
  if (slot.size() < bytes) slot.resize(bytes);
  return slot.data();
}

Request Comm::completed_send(int dst, int tag) {
  // parx sends are buffered and never block, so the request is born
  // complete; it exists for uniform wait_any/wait_all sets.
  Request r;
  r.st_ = std::make_shared<detail::RequestState>();
  r.st_->kind = detail::RequestState::Kind::kSend;
  r.st_->peer = dst;
  r.st_->peer_world = world_rank_of(dst);
  r.st_->tag = tag;
  r.st_->done.store(true, std::memory_order_release);
  return r;
}

Request Comm::isend(int dst, int tag, const void* data, std::size_t n) {
  send_bytes(dst, tag, data, n);
  return completed_send(dst, tag);
}

Request Comm::irecv(int src, int tag) {
  assert(src >= 0 && src < group_->size && src != rank_);
  fault_point(FaultOp::kRecv);
  Request r;
  r.st_ = std::make_shared<detail::RequestState>();
  r.st_->kind = detail::RequestState::Kind::kRecv;
  r.st_->peer = src;
  r.st_->peer_world = world_rank_of(src);
  r.st_->tag = tag;
  auto& box = *group_->boxes[static_cast<std::size_t>(rank_)];
  {
    std::lock_guard lock(box.mu);
    box.pending.push_back(r.st_);
    match_pending(box);  // the message may already be queued
  }
  return r;
}

bool Comm::test(Request& req) {
  if (!req.st_) return false;
  if (req.st_->done.load(std::memory_order_acquire)) return true;
  check_abort();
  auto& box = *group_->boxes[static_cast<std::size_t>(rank_)];
  std::lock_guard lock(box.mu);
  match_pending(box);
  return req.st_->done.load(std::memory_order_relaxed);
}

template <class Ready>
void Comm::wait_until(Ready&& ready, double timeout_s, const char* opname, int peer_world) {
  check_abort();
  BlockedScope blocked(*group_->job, world_rank(), opname, peer_world);
  const double deadline = deadline_of(timeout_s);
  auto& box = *group_->boxes[static_cast<std::size_t>(rank_)];
  std::unique_lock lock(box.mu);
  std::uint64_t seen = box.delivered;
  for (;;) {
    match_pending(box);
    if (ready()) return;
    check_abort();
    if (steady_seconds() >= deadline)
      throw TimeoutError(std::string("parx: ") + opname + " timed out on rank " +
                         std::to_string(world_rank()));
    if (box.delivered != seen) {
      // Traffic is still landing in this mailbox: the rank is making
      // progress even though its own requests are not complete yet, so
      // restart the watchdog's quiescence clock.
      seen = box.delivered;
      blocked.refresh();
    }
    box.cv.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void Comm::wait(Request& req, double timeout_s) {
  if (!req.st_) throw std::logic_error("parx: wait on an invalid request");
  try {
    wait_until([&] { return req.st_->done.load(std::memory_order_relaxed); }, timeout_s,
               "wait", req.st_->peer_world);
  } catch (const TimeoutError&) {
    // Cancel so a late message is not eaten by this abandoned request.
    auto& box = *group_->boxes[static_cast<std::size_t>(rank_)];
    std::lock_guard lock(box.mu);
    if (!req.st_->done.load(std::memory_order_relaxed)) req.st_->cancelled = true;
    throw;
  }
}

int Comm::wait_any(std::span<Request> reqs, double timeout_s) {
  int found = -1;
  wait_until(
      [&] {
        bool live = false;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          auto& st = reqs[i].st_;
          if (!st || st->claimed) continue;
          live = true;
          if (st->done.load(std::memory_order_relaxed)) {
            st->claimed = true;
            found = static_cast<int>(i);
            return true;
          }
        }
        if (!live) throw std::logic_error("parx: wait_any with no active requests");
        return false;
      },
      timeout_s, "wait_any", -1);
  return found;
}

void Comm::wait_all(std::span<Request> reqs, double timeout_s) {
  wait_until(
      [&] {
        for (auto& r : reqs)
          if (r.st_ && !r.st_->done.load(std::memory_order_relaxed)) return false;
        return true;
      },
      timeout_s, "wait_all", -1);
}

Buf Comm::recv_buf(int src, int tag, double timeout_s) {
  // Blocking receive = irecv + wait: one matching discipline for both, so
  // a blocking recv can never overtake an earlier-posted irecv on the
  // same (src, tag).
  Request req = irecv(src, tag);
  try {
    wait_until([&] { return req.st_->done.load(std::memory_order_relaxed); }, timeout_s,
               "recv", req.st_->peer_world);
  } catch (const TimeoutError&) {
    auto& box = *group_->boxes[static_cast<std::size_t>(rank_)];
    {
      std::lock_guard lock(box.mu);
      if (req.st_->done.load(std::memory_order_relaxed)) return req.take_buf();
      req.st_->cancelled = true;
    }
    throw TimeoutError("parx: recv from rank " + std::to_string(world_rank_of(src)) +
                       " tag " + std::to_string(tag) + " timed out on rank " +
                       std::to_string(world_rank()));
  }
  return req.take_buf();
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag, double timeout_s) {
  return recv_buf(src, tag, timeout_s).take<std::byte>();
}

int Comm::next_collective_tag() {
  const std::uint32_t seq =
      group_->coll_seq[static_cast<std::size_t>(rank_)].fetch_add(1, std::memory_order_relaxed);
  return kCollTagBase - static_cast<int>(seq % kCollSeqWindow);
}

std::vector<std::size_t> Comm::exchange_sizes(std::span<const std::size_t> to_each) {
  fault_point(FaultOp::kCollective);
  BlockedScope blocked(*group_->job, world_rank(), "exchange_sizes", -1);
  Group& g = *group_;
  const auto p = static_cast<std::size_t>(g.size);
  assert(to_each.size() == p);
  auto check = [&] { check_abort(); };
  const auto me = static_cast<std::size_t>(rank_);
  std::copy(to_each.begin(), to_each.end(), g.size_matrix.begin() + static_cast<std::ptrdiff_t>(me * p));
  g.size_barrier.wait(check);  // all rows written
  std::vector<std::size_t> from_each(p);
  for (std::size_t r = 0; r < p; ++r) from_each[r] = g.size_matrix[r * p + me];
  g.size_barrier.wait(check);  // all columns read; matrix reusable
  return from_each;
}

Comm Comm::split(int color, int key) {
  telemetry::Span span("parx/split");
  fault_point(FaultOp::kCollective);
  BlockedScope blocked(*group_->job, world_rank(), "split", -1);
  Group& g = *group_;
  auto poisoned = [&] { check_abort(); };
  {
    std::lock_guard lock(g.split_mu);
    if (g.split_results.empty()) g.split_results.resize(static_cast<std::size_t>(g.size));
    g.split_entries.push_back({color, key, rank_});
  }
  g.split_barrier.wait(poisoned);  // all entries staged
  if (rank_ == 0) {
    auto entries = g.split_entries;  // copy; staging cleared below
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return std::tie(a.color, a.key, a.old_rank) < std::tie(b.color, b.key, b.old_rank);
    });
    std::size_t i = 0;
    while (i < entries.size()) {
      std::size_t j = i;
      while (j < entries.size() && entries[j].color == entries[i].color) ++j;
      std::vector<int> world;
      world.reserve(j - i);
      for (std::size_t k = i; k < j; ++k)
        world.push_back(g.world_ranks[static_cast<std::size_t>(entries[k].old_rank)]);
      auto sub = std::make_shared<Group>(static_cast<int>(j - i), g.job, std::move(world));
      for (std::size_t k = i; k < j; ++k)
        g.split_results[static_cast<std::size_t>(entries[k].old_rank)] = {sub, static_cast<int>(k - i)};
      i = j;
    }
    g.split_entries.clear();
  }
  g.split_barrier.wait(poisoned);  // results published
  auto [sub, new_rank] = g.split_results[static_cast<std::size_t>(rank_)];
  g.split_barrier.wait(poisoned);  // all picked up; results reusable
  if (rank_ == 0) {
    std::lock_guard lock(g.split_mu);
    for (auto& r : g.split_results) r = {nullptr, -1};
  }
  return Comm(std::move(sub), new_rank);
}

}  // namespace greem::parx
