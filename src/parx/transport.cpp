#include "parx/transport.hpp"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "parx/group.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/live_endpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/hash.hpp"

namespace greem::parx {

using detail::Group;
using detail::JobState;
using detail::Message;

namespace {

/// Uniform [0,1) from a counter-based FNV-1a hash: same inputs, same
/// draw, on any thread at any time.
double hash01(std::uint64_t seed, int src, int dst, std::uint64_t seq,
              std::uint32_t attempt, std::uint32_t salt) {
  util::Fnv1a64 h;
  h.mix(seed).mix(src).mix(dst).mix(seq).mix(attempt).mix(salt);
  return static_cast<double>(h.value() >> 11) * 0x1.0p-53;
}

constexpr std::uint32_t kSaltDrop = 1;
constexpr std::uint32_t kSaltCorrupt = 2;
constexpr std::uint32_t kSaltDup = 3;
constexpr std::uint32_t kSaltReorder = 4;
constexpr std::uint32_t kSaltBlackhole = 5;
constexpr std::uint32_t kSaltAck = 6;
constexpr std::uint32_t kSaltBit = 7;

/// Cached counter references: registry lookup is a mutexed map, so every
/// hot-path site below binds its counter once (addresses are stable for
/// the process lifetime).
#define PARX_COUNTER(var, name) \
  static telemetry::Counter& var = telemetry::Registry::global().counter(name)

/// Format "parx/link/S->D/<what>" without allocating beyond the registry's
/// own copy of the name.
std::string link_name(int src, int dst, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "parx/link/%d->%d/%s", src, dst, what);
  return buf;
}

/// Lazily bind a per-link instrument slot (benign race: the registry
/// returns one stable reference per name, so concurrent fills agree).
template <class T, class Lookup>
T& link_slot(std::vector<std::atomic<T*>>& cache, int nranks, int src, int dst,
             Lookup&& lookup) {
  auto& slot = cache[static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks) +
                     static_cast<std::size_t>(dst)];
  T* p = slot.load(std::memory_order_acquire);
  if (!p) {
    p = &lookup();
    slot.store(p, std::memory_order_release);
  }
  return *p;
}

}  // namespace

// ---------------------------------------------------------------- LinkModel

struct LinkModel::Armed {
  FaultSpec spec;
  std::atomic<long long> remaining{0};  ///< <0 = unlimited
};

LinkModel::LinkModel(std::vector<FaultSpec> specs, std::uint64_t seed)
    : n_(specs.size()), seed_(seed) {
  armed_ = std::make_unique<Armed[]>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    armed_[i].spec = specs[i];
    armed_[i].remaining.store(specs[i].times == kUnlimited ? -1 : specs[i].times,
                              std::memory_order_relaxed);
  }
}

LinkModel::~LinkModel() = default;

// The hash draw is evaluated lazily (only when the spec could fire at
// all), so rate-0 specs -- the "armed but idle" perf probes -- cost a
// comparison, not an FNV pass, per message.
bool LinkModel::fire(Armed& a, double u) {
  if (u >= a.spec.rate) return false;
  long long r = a.remaining.load(std::memory_order_relaxed);
  if (r < 0) return true;  // unlimited budget
  if (a.remaining.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    a.remaining.fetch_add(1, std::memory_order_relaxed);  // spent; undo
    return false;
  }
  return true;
}

LinkModel::Decision LinkModel::decide(int src_world, int dst_world, std::uint64_t seq,
                                      std::uint32_t attempt, const FaultContext& ctx) {
  Decision d;
  for (std::size_t i = 0; i < n_; ++i) {
    Armed& a = armed_[i];
    if (!spec_matches_context(a.spec, src_world, ctx)) continue;
    if (a.spec.rate <= 0) continue;
    switch (a.spec.kind) {
      case FaultKind::kLinkDrop:
        if (!d.drop && fire(a, hash01(seed_, src_world, dst_world, seq, attempt, kSaltDrop)))
          d.drop = true;
        break;
      case FaultKind::kLinkCorrupt:
        if (!d.corrupt &&
            fire(a, hash01(seed_, src_world, dst_world, seq, attempt, kSaltCorrupt))) {
          d.corrupt = true;
          d.corrupt_salt = static_cast<std::uint64_t>(
              hash01(seed_, src_world, dst_world, seq, attempt, kSaltBit) * 0x1.0p+32);
        }
        break;
      case FaultKind::kLinkDuplicate:
        if (!d.duplicate &&
            fire(a, hash01(seed_, src_world, dst_world, seq, attempt, kSaltDup)))
          d.duplicate = true;
        break;
      case FaultKind::kLinkReorder:
        if (!d.reorder &&
            fire(a, hash01(seed_, src_world, dst_world, seq, attempt, kSaltReorder)))
          d.reorder = true;
        break;
      default:
        break;  // fail-stop kinds and blackholes are sampled elsewhere
    }
  }
  return d;
}

bool LinkModel::blackhole_fires(int src_world, int dst_world, std::uint64_t seq,
                                const FaultContext& ctx) {
  for (std::size_t i = 0; i < n_; ++i) {
    Armed& a = armed_[i];
    if (a.spec.kind != FaultKind::kLinkBlackhole || a.spec.rate <= 0) continue;
    if (!spec_matches_context(a.spec, src_world, ctx)) continue;
    if (fire(a, hash01(seed_, src_world, dst_world, seq, 0, kSaltBlackhole))) return true;
  }
  return false;
}

bool LinkModel::ack_dropped(int acker_world, int to_world, std::uint64_t seq,
                            std::uint32_t attempt, const FaultContext& ctx) {
  for (std::size_t i = 0; i < n_; ++i) {
    Armed& a = armed_[i];
    if (a.spec.kind != FaultKind::kLinkDrop || a.spec.rate <= 0) continue;
    if (!spec_matches_context(a.spec, acker_world, ctx)) continue;
    if (fire(a, hash01(seed_, acker_world, to_world, seq, attempt, kSaltAck))) return true;
  }
  return false;
}

bool LinkModel::covers_sender(int src_world) const {
  for (std::size_t i = 0; i < n_; ++i) {
    const FaultSpec& s = armed_[i].spec;
    if (s.rank == kEveryRank || s.rank == src_world) return true;
  }
  return false;
}

bool LinkModel::can_corrupt() const {
  for (std::size_t i = 0; i < n_; ++i)
    if (armed_[i].spec.kind == FaultKind::kLinkCorrupt) return true;
  return false;
}

// ------------------------------------------------------- ReliableTransport

ReliableTransport::ReliableTransport(int nranks, std::shared_ptr<LinkModel> model,
                                     TransportTuning tuning, JobState* job)
    : nranks_(nranks),
      model_(std::move(model)),
      tuning_(tuning),
      job_(job),
      eps_(static_cast<std::size_t>(nranks)),
      link_lat_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks)),
      link_rtt_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks)),
      link_retx_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks)) {
  for (auto& ep : eps_) {
    ep.tx.resize(static_cast<std::size_t>(nranks));
    ep.rx.resize(static_cast<std::size_t>(nranks));
  }
  // Partition senders into framed vs fast-path once, at install time, and
  // decide whether CRC framing is engaged at all (pay-for-what-you-use:
  // a drop-only plan cannot flip bits, so both CRC passes are skipped).
  framed_.resize(static_cast<std::size_t>(nranks), 0);
  for (int r = 0; r < nranks; ++r)
    framed_[static_cast<std::size_t>(r)] = model_->covers_sender(r) ? 1 : 0;
  crc_on_ = model_->can_corrupt();
  rto_hint_.store(tuning_.rto_s, std::memory_order_relaxed);
}

ReliableTransport::~ReliableTransport() = default;

telemetry::Histogram& ReliableTransport::link_latency(int src_world, int dst_world) {
  return link_slot(link_lat_, nranks_, src_world, dst_world, [&]() -> telemetry::Histogram& {
    return telemetry::Registry::global().histogram(link_name(src_world, dst_world, "latency_s"));
  });
}

telemetry::Histogram& ReliableTransport::link_ack_rtt(int src_world, int dst_world) {
  return link_slot(link_rtt_, nranks_, src_world, dst_world, [&]() -> telemetry::Histogram& {
    return telemetry::Registry::global().histogram(link_name(src_world, dst_world, "ack_rtt_s"));
  });
}

telemetry::Counter& ReliableTransport::link_retransmits(int src_world, int dst_world) {
  return link_slot(link_retx_, nranks_, src_world, dst_world, [&]() -> telemetry::Counter& {
    return telemetry::Registry::global().counter(link_name(src_world, dst_world, "retransmits"));
  });
}

std::uint32_t ReliableTransport::frame_crc(const Frame& f) const {
  util::Crc32 c;
  auto mix = [&c](const auto& v) { c.update(&v, sizeof(v)); };
  mix(f.seq);
  mix(f.src_world);
  mix(f.dst_world);
  mix(f.group_id);
  mix(f.src_local);
  mix(f.dst_local);
  mix(f.tag);
  // ack_upto is deliberately excluded: the corrupt model flips payload
  // bits only, and cumulative acks are idempotent.
  const std::uint64_t n = f.payload ? f.payload->size() : 0;
  mix(n);
  if (f.payload) c.update(f.payload->data(), f.payload->size());
  return c.value();
}

void ReliableTransport::send(Group& group, int src_local, int dst_local, int tag,
                             const void* data, std::size_t n) {
  Frame f;
  f.src_world = group.world_ranks[static_cast<std::size_t>(src_local)];
  f.dst_world = group.world_ranks[static_cast<std::size_t>(dst_local)];
  f.group_id = group.id;
  f.src_local = src_local;
  f.dst_local = dst_local;
  f.tag = tag;
  // The only payload copy on the framed path: retransmissions and
  // deliveries share this allocation from here on.
  f.payload = std::make_shared<std::vector<std::byte>>(n);
  if (n > 0) std::memcpy(f.payload->data(), data, n);
  f.ctx = fault_context();
  // Causal-trace stamp: travels with the frame (and its retransmit-queue
  // copy) into the destination Message, pairing send and recv events.
  f.flow = telemetry::next_flow_id();
  f.sent_ns = telemetry::trace_now_ns();

  // Piggyback the reverse link's pending cumulative ack, if any.  The
  // lock-free probe keeps clean sends from paying the peer lock when
  // nothing is owed; the RxPeer and TxPeer locks below are same-tier and
  // taken sequentially, never nested.
  {
    Endpoint& ep = eps_[static_cast<std::size_t>(f.src_world)];
    RxPeer& rp = ep.rx[static_cast<std::size_t>(f.dst_world)];
    if (rp.ack_pending.load(std::memory_order_relaxed) > 0) {
      std::lock_guard lock(rp.mu);
      const std::uint64_t pending = rp.ack_pending.load(std::memory_order_relaxed);
      if (pending > 0) {
        f.ack_upto = pending;
        rp.ack_pending.store(0, std::memory_order_relaxed);
        acks_backlog_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  bool doomed = false;
  {
    Endpoint& ep = eps_[static_cast<std::size_t>(f.src_world)];
    TxPeer& tp = ep.tx[static_cast<std::size_t>(f.dst_world)];
    std::lock_guard lock(tp.mu);
    f.seq = tp.next_seq++;
    if (crc_on_) f.crc = frame_crc(f);
    // The blackhole verdict is per-frame and sticks to every
    // retransmission, so an exhausted retry budget is deterministic.
    doomed = model_->blackhole_fires(f.src_world, f.dst_world, f.seq, f.ctx);
    tp.unacked.push_back(Pending{f, detail::steady_seconds() + rto_hint(), doomed});
  }
  unacked_frames_.fetch_add(1, std::memory_order_relaxed);
  PARX_COUNTER(frames_sent, "parx/frames_sent");
  frames_sent.add();
  telemetry::flight_record_frame(telemetry::FrameEventKind::kSend, f.src_world, f.dst_world,
                                 f.seq, n, f.flow);
  transmit(std::move(f), doomed);
}

void ReliableTransport::transmit(Frame f, bool doomed) {
  if (doomed) {
    PARX_COUNTER(blackholed, "parx/blackholed");
    blackholed.add();
    return;
  }
  const LinkModel::Decision d =
      model_->decide(f.src_world, f.dst_world, f.seq, f.attempt, f.ctx);
  if (d.drop) {
    PARX_COUNTER(drops, "parx/drops_injected");
    drops.add();
    telemetry::flight_record_frame(telemetry::FrameEventKind::kDrop, f.src_world, f.dst_world,
                                   f.seq, f.payload ? f.payload->size() : 0, f.flow);
    return;
  }
  if (d.corrupt && f.payload && !f.payload->empty()) {
    // Deep-copy before flipping so the retransmit queue's pristine copy
    // heals the corruption (f.payload still aliases that copy here).
    f.payload = std::make_shared<std::vector<std::byte>>(*f.payload);
    const std::uint64_t bit = d.corrupt_salt % (f.payload->size() * 8);
    (*f.payload)[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    PARX_COUNTER(corrupted, "parx/corrupted_injected");
    corrupted.add();
  }
  if (d.duplicate) {
    PARX_COUNTER(dups, "parx/duplicates_injected");
    dups.add();
    deliver(f, d.reorder);
    deliver(std::move(f), false);
    return;
  }
  deliver(std::move(f), d.reorder);
}

void ReliableTransport::deliver(Frame f, bool hold_for_reorder) {
  const int src = f.src_world, dst = f.dst_world;
  const std::uint64_t seq = f.seq;
  const std::uint32_t attempt = f.attempt;
  const FaultContext ctx = f.ctx;
  std::uint64_t pig = f.ack_upto;  ///< piggybacked acks carried by arriving frames
  std::uint64_t ack = 0;
  {
    Endpoint& ep = eps_[static_cast<std::size_t>(dst)];
    RxPeer& rp = ep.rx[static_cast<std::size_t>(src)];
    std::lock_guard lock(rp.mu);
    if (hold_for_reorder) {
      // Held until the next frame on this link overtakes it (or the
      // monitor flushes it) -- that is what "reorder" means here.  Its
      // piggybacked ack waits with it.
      PARX_COUNTER(reordered, "parx/reordered_injected");
      reordered.add();
      rp.limbo.push_back(std::move(f));
      limbo_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ack = process_frame(rp, f);
    // Anything parked in limbo has now been overtaken; let it arrive.
    while (!rp.limbo.empty()) {
      Frame held = std::move(rp.limbo.front());
      rp.limbo.pop_front();
      limbo_frames_.fetch_sub(1, std::memory_order_relaxed);
      if (held.ack_upto > pig) pig = held.ack_upto;
      const std::uint64_t a = process_frame(rp, held);
      if (a > ack) ack = a;
    }
    // Acks are not applied immediately: record as pending; the next
    // reverse-direction data frame piggybacks it, or the monitor flushes
    // it as a standalone ack on the batching deadline.
    if (ack > 0) note_ack(rp, ack, seq, attempt, ctx);
  }
  // The carrier frame already survived the link model, so its piggybacked
  // ack applies without a second drop draw.
  if (pig > 0) apply_ack_clean(src, dst, pig);
}

void ReliableTransport::note_ack(RxPeer& rp, std::uint64_t ack, std::uint64_t seq,
                                 std::uint32_t attempt, const FaultContext& ctx) {
  const std::uint64_t pending = rp.ack_pending.load(std::memory_order_relaxed);
  if (pending == 0) {
    rp.ack_since = detail::steady_seconds();
    acks_backlog_.fetch_add(1, std::memory_order_relaxed);
  }
  if (ack > pending) rp.ack_pending.store(ack, std::memory_order_relaxed);
  rp.ack_seq = seq;
  rp.ack_attempt = attempt;
  rp.ack_ctx = ctx;
}

std::uint64_t ReliableTransport::process_frame(RxPeer& rp, Frame& f) {
  if (crc_on_ && frame_crc(f) != f.crc) {
    // Bit-flipped in flight; drop silently and let retransmission heal it.
    PARX_COUNTER(caught, "parx/corrupt_detected");
    caught.add();
    return 0;
  }
  if (f.seq < rp.expected) {
    // Already delivered (retransmit raced the ack, or an injected dup).
    PARX_COUNTER(dropped, "parx/duplicates_dropped");
    dropped.add();
    return rp.expected;  // re-ack so the sender stops retransmitting
  }
  if (f.seq > rp.expected) {
    // Out of order: park for reassembly (dedup by map key).
    if (!rp.ooo.emplace(f.seq, std::move(f)).second) {
      PARX_COUNTER(dropped, "parx/duplicates_dropped");
      dropped.add();
    }
    return 0;
  }
  to_mailbox(f);
  ++rp.expected;
  for (auto it = rp.ooo.begin(); it != rp.ooo.end() && it->first == rp.expected;) {
    to_mailbox(it->second);
    ++rp.expected;
    it = rp.ooo.erase(it);
  }
  return rp.expected;
}

void ReliableTransport::to_mailbox(Frame& f) {
  if (f.flow != 0) {
    // In-order acceptance closes the wire leg: send -> deliver latency
    // includes every retransmit and reassembly delay on this link.
    const std::int64_t now = telemetry::trace_now_ns();
    link_latency(f.src_world, f.dst_world)
        .record(static_cast<double>(now > f.sent_ns ? now - f.sent_ns : 0) * 1e-9);
    telemetry::flight_record_frame(telemetry::FrameEventKind::kDeliver, f.src_world,
                                   f.dst_world, f.seq, f.payload ? f.payload->size() : 0,
                                   f.flow);
  }
  auto push = [&](Group* g) {
    auto& box = *g->boxes[static_cast<std::size_t>(f.dst_local)];
    {
      std::lock_guard lock(box.mu);
      // The payload may still be shared with the retransmit queue; the
      // receiver's take() moves it once the queue lets go (Buf::share).
      box.msgs.push_back(Message{f.src_local, f.tag, Buf::share(std::move(f.payload)),
                                 f.src_world, f.flow, f.sent_ns});
      ++box.delivered;
    }
    box.cv.notify_all();
  };
  // World traffic (the dominant path) routes without the global registry
  // lock: the world group is created before any run and outlives them all.
  Group* wg = job_->world_group;
  if (wg && wg->id == f.group_id) {
    push(wg);
    return;
  }
  std::lock_guard groups_lock(job_->groups_mu);
  for (Group* g : job_->groups) {
    if (g->id != f.group_id) continue;
    push(g);
    return;
  }
  // The destination communicator is gone; the application can no longer
  // recv this message, so consuming it is the only consistent outcome.
  PARX_COUNTER(orphaned, "parx/orphaned_frames");
  orphaned.add();
}

void ReliableTransport::clear_acked(TxPeer& tp, std::uint64_t upto) {
  if (upto > tp.acked_upto) tp.acked_upto = upto;
  std::uint64_t cleared = 0;
  const std::int64_t now = telemetry::trace_now_ns();
  while (!tp.unacked.empty() && tp.unacked.front().frame.seq < upto) {
    const Frame& f = tp.unacked.front().frame;
    if (f.flow != 0) {
      // Retiring a frame closes its ack round trip (first send -> ack).
      const double rtt = static_cast<double>(now > f.sent_ns ? now - f.sent_ns : 0) * 1e-9;
      link_ack_rtt(f.src_world, f.dst_world).record(rtt);
      static telemetry::Histogram& all_rtt =
          telemetry::Registry::global().histogram("parx/ack_rtt_s");
      all_rtt.record(rtt);
      telemetry::flight_record_frame(telemetry::FrameEventKind::kAck, f.src_world,
                                     f.dst_world, f.seq, f.payload ? f.payload->size() : 0,
                                     f.flow);
    }
    tp.unacked.pop_front();
    ++cleared;
  }
  if (cleared > 0) unacked_frames_.fetch_sub(cleared, std::memory_order_relaxed);
}

void ReliableTransport::apply_ack(int acker_world, int to_world, std::uint64_t upto,
                                  std::uint64_t seq, std::uint32_t attempt,
                                  const FaultContext& ctx) {
  if (model_->ack_dropped(acker_world, to_world, seq, attempt, ctx)) {
    PARX_COUNTER(acks_dropped, "parx/acks_dropped");
    acks_dropped.add();
    return;
  }
  PARX_COUNTER(acks, "parx/acks");
  acks.add();
  TxPeer& tp = eps_[static_cast<std::size_t>(to_world)].tx[static_cast<std::size_t>(acker_world)];
  std::lock_guard lock(tp.mu);
  clear_acked(tp, upto);
}

void ReliableTransport::apply_ack_clean(int acker_world, int to_world, std::uint64_t upto) {
  PARX_COUNTER(piggybacked, "parx/acks_piggybacked");
  piggybacked.add();
  TxPeer& tp = eps_[static_cast<std::size_t>(to_world)].tx[static_cast<std::size_t>(acker_world)];
  std::lock_guard lock(tp.mu);
  clear_acked(tp, upto);
}

void ReliableTransport::tick(double now) {
  // Idle early-out: nothing unacked, no ack owed, nothing in limbo --
  // the common case on clean links between bursts -- costs three relaxed
  // loads and no lock (a stale hint only delays work by one tick).
  if (unacked_frames_.load(std::memory_order_relaxed) == 0 &&
      acks_backlog_.load(std::memory_order_relaxed) == 0 &&
      limbo_frames_.load(std::memory_order_relaxed) == 0)
    return;
  std::lock_guard scan(scan_mu_);
  const TransportTuning tun = tuning();

  // Flush reorder limbo: a held frame with no successor traffic must not
  // wait for its retransmit timeout.
  if (limbo_frames_.load(std::memory_order_relaxed) > 0) {
    for (auto& ep : eps_) {
      std::vector<Frame> flush;
      for (auto& rp : ep.rx) {
        std::lock_guard lock(rp.mu);
        while (!rp.limbo.empty()) {
          flush.push_back(std::move(rp.limbo.front()));
          rp.limbo.pop_front();
          limbo_frames_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      for (auto& f : flush) deliver(std::move(f), false);
    }
  }

  // Standalone-ack flush: pending acks no reverse traffic picked up, once
  // past the batching deadline.  These ride the lossy link (drop draw in
  // apply_ack), using the raising frame's identity for determinism.
  if (acks_backlog_.load(std::memory_order_relaxed) > 0) {
    struct AckOut {
      int acker, to;
      std::uint64_t upto, seq;
      std::uint32_t attempt;
      FaultContext ctx;
    };
    std::vector<AckOut> acks;
    for (std::size_t dst = 0; dst < eps_.size(); ++dst) {
      Endpoint& ep = eps_[dst];
      for (std::size_t src = 0; src < ep.rx.size(); ++src) {
        RxPeer& rp = ep.rx[src];
        std::lock_guard lock(rp.mu);
        const std::uint64_t pending = rp.ack_pending.load(std::memory_order_relaxed);
        if (pending == 0 || now - rp.ack_since < tun.ack_delay_s) continue;
        acks.push_back({static_cast<int>(dst), static_cast<int>(src), pending,
                        rp.ack_seq, rp.ack_attempt, rp.ack_ctx});
        rp.ack_pending.store(0, std::memory_order_relaxed);
        acks_backlog_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    for (auto& a : acks) apply_ack(a.acker, a.to, a.upto, a.seq, a.attempt, a.ctx);
  }

  // Retransmit scan.
  if (unacked_frames_.load(std::memory_order_relaxed) == 0) return;
  struct Retx {
    Frame frame;
    bool doomed;
  };
  std::vector<Retx> retx;
  std::string dead;
  for (auto& ep : eps_) {
    for (std::size_t dst = 0; dst < ep.tx.size(); ++dst) {
      TxPeer& tp = ep.tx[dst];
      std::lock_guard lock(tp.mu);
      for (auto& p : tp.unacked) {
        if (now < p.next_retry) continue;
        if (static_cast<int>(p.frame.attempt) + 1 >= tun.max_attempts) {
          if (dead.empty()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "parx: unrecoverable message loss on link %d->%d "
                          "(seq %" PRIu64 ", %u transmissions)",
                          p.frame.src_world, p.frame.dst_world, p.frame.seq,
                          p.frame.attempt + 1);
            dead = buf;
          }
          continue;
        }
        ++p.frame.attempt;
        p.next_retry =
            now + tun.rto_s * std::pow(tun.backoff, p.frame.attempt);
        retx.push_back({p.frame, p.doomed});
      }
    }
  }
  for (auto& r : retx) {
    PARX_COUNTER(retransmits, "parx/retransmits");
    retransmits.add();
    link_retransmits(r.frame.src_world, r.frame.dst_world).add();
    telemetry::flight_record_frame(telemetry::FrameEventKind::kRetransmit, r.frame.src_world,
                                   r.frame.dst_world, r.frame.seq,
                                   r.frame.payload ? r.frame.payload->size() : 0,
                                   r.frame.flow);
    if (job_->ledger)
      job_->ledger->record_retransmit(r.frame.src_world, r.frame.dst_world,
                                      r.frame.payload ? r.frame.payload->size() : 0);
    transmit(std::move(r.frame), r.doomed);
  }
  if (!dead.empty()) {
    PARX_COUNTER(failures, "parx/transport_failures");
    failures.add();
    job_->raise_fault(dead);
  }
}

void ReliableTransport::reset() {
  std::lock_guard scan(scan_mu_);
  for (auto& ep : eps_) {
    for (auto& tp : ep.tx) {
      std::lock_guard lock(tp.mu);
      tp = TxPeer{};
    }
    for (auto& rp : ep.rx) {
      std::lock_guard lock(rp.mu);
      rp = RxPeer{};
    }
  }
  unacked_frames_.store(0, std::memory_order_relaxed);
  acks_backlog_.store(0, std::memory_order_relaxed);
  limbo_frames_.store(0, std::memory_order_relaxed);
}

void ReliableTransport::dump(std::ostream& os) const {
  for (int src = 0; src < nranks_; ++src) {
    const Endpoint& ep = eps_[static_cast<std::size_t>(src)];
    for (int dst = 0; dst < nranks_; ++dst) {
      const TxPeer& tp = ep.tx[static_cast<std::size_t>(dst)];
      std::lock_guard lock(tp.mu);
      if (tp.next_seq == 0) continue;
      os << "  link " << src << "->" << dst << ": sent seq<" << tp.next_seq
         << ", acked<" << tp.acked_upto << ", unacked " << tp.unacked.size() << "\n";
    }
  }
}

// ----------------------------------------------------------------- Monitor

Monitor::Monitor(std::shared_ptr<JobState> job, std::shared_ptr<Group> world)
    : job_(std::move(job)), world_(std::move(world)) {
  thread_ = std::thread([this] { loop(); });
}

Monitor::~Monitor() {
  {
    std::lock_guard lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void Monitor::set_watchdog(const WatchdogConfig& cfg) {
  std::lock_guard lock(cfg_mu_);
  watchdog_ = cfg;
}

void Monitor::loop() {
  for (;;) {
    double tick_s = 0.001;
    if (auto t = job_->transport_ref()) tick_s = t->tuning().tick_s;
    {
      std::unique_lock lock(stop_mu_);
      stop_cv_.wait_for(lock, std::chrono::duration<double>(tick_s));
      if (stop_) return;
    }
    if (job_->poisoned.load(std::memory_order_relaxed)) continue;
    const double now = detail::steady_seconds();
    if (auto t = job_->transport_ref()) t->tick(now);
    if (!job_->fault.load(std::memory_order_relaxed)) check_hang(now);
  }
}

void Monitor::check_hang(double now) {
  WatchdogConfig cfg;
  {
    std::lock_guard lock(cfg_mu_);
    cfg = watchdog_;
  }
  if (cfg.quiescence_s <= 0 || !job_->activity) return;
  int stuck = -1;
  double stuck_for = 0;
  for (int r = 0; r < job_->nranks; ++r) {
    const auto& a = job_->activity[static_cast<std::size_t>(r)];
    const double since = a.blocked_since.load(std::memory_order_relaxed);
    if (since > 0 && now - since > cfg.quiescence_s && now - since > stuck_for) {
      stuck = r;
      stuck_for = now - since;
    }
  }
  if (stuck < 0) return;

  const auto& a = job_->activity[static_cast<std::size_t>(stuck)];
  const char* op = a.op.load(std::memory_order_relaxed);
  char head[192];
  std::snprintf(head, sizeof(head),
                "parx watchdog: rank %d stuck in %s for %.3f s (quiescence window %.3f s)",
                stuck, op ? op : "?", stuck_for, cfg.quiescence_s);

  std::ostringstream report;
  report << head << "\n";
  dump_state(report, now);
  std::cerr << report.str();
  if (!cfg.dump_path.empty()) {
    std::ofstream f(cfg.dump_path);
    if (f) f << report.str();
  }
  telemetry::Registry::global().counter("parx/watchdog_fired").add();
  // Post-mortem: mark every rank's blocked/running verdict in the flight
  // recorder, then dump the rings as a Chrome-trace artifact next to the
  // text report.  The configured path wins; the module-level path
  // (set_flight_dump_path / $GREEM_FLIGHT_DUMP) is the fallback.
  telemetry::flight_record_mark("watchdog/fired", stuck,
                                static_cast<std::int64_t>(stuck_for * 1e3));
  for (int r = 0; r < job_->nranks; ++r) {
    const auto& ra = job_->activity[static_cast<std::size_t>(r)];
    const bool blocked = ra.blocked_since.load(std::memory_order_relaxed) > 0;
    telemetry::flight_record_mark(blocked ? "watchdog/blocked" : "watchdog/running", r,
                                  ra.peer.load(std::memory_order_relaxed));
  }
  if (!cfg.flight_dump_path.empty())
    telemetry::write_chrome_trace(cfg.flight_dump_path);
  else
    telemetry::dump_flight_recorder();
  telemetry::LiveEndpoint::global().publish_event("watchdog", head);
  job_->raise_fault(head);
}

void Monitor::dump_state(std::ostream& os, double now) const {
  os << "per-rank state:\n";
  for (int r = 0; r < job_->nranks; ++r) {
    const auto& a = job_->activity[static_cast<std::size_t>(r)];
    const double since = a.blocked_since.load(std::memory_order_relaxed);
    const char* op = a.op.load(std::memory_order_relaxed);
    const std::uint64_t step = a.ctx_step.load(std::memory_order_relaxed);
    const auto phase = static_cast<FaultPhase>(a.ctx_phase.load(std::memory_order_relaxed));
    std::size_t depth = 0;
    {
      auto& box = *world_->boxes[static_cast<std::size_t>(r)];
      std::lock_guard lock(box.mu);
      depth = box.msgs.size();
    }
    os << "  rank " << r << ": ";
    if (since > 0) {
      os << "blocked in " << (op ? op : "?");
      const int peer = a.peer.load(std::memory_order_relaxed);
      if (peer >= 0) os << " on rank " << peer;
      os << " for " << now - since << " s";
    } else {
      os << "running";
    }
    os << ", step ";
    if (step == kNoFaultStep) os << "-";
    else os << step;
    os << " phase " << to_string(phase) << ", world mailbox depth " << depth << "\n";
  }
  if (auto t = job_->transport_ref()) {
    os << "transport links:\n";
    t->dump(os);
  }
}

}  // namespace greem::parx
