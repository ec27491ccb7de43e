// Lossy-transport soak test: hundreds of randomized collective rounds under
// each link-fault kind (and a mixed plan) must produce results bitwise
// identical to the clean run.  The reliability sublayer is allowed to cost
// retransmissions -- which the traffic ledger must account separately from
// logical traffic -- but never correctness.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "parx/comm.hpp"
#include "parx/fault.hpp"
#include "parx/runtime.hpp"
#include "parx/transport.hpp"
#include "util/hash.hpp"

namespace greem::parx {
namespace {

constexpr int kRanks = 4;
constexpr int kRounds = 200;

// Deterministic pseudo-random payload element: a pure function of the
// round/src/dst/index coordinates (no RNG state to keep in sync).
double element(int round, int src, int dst, int i) {
  util::Fnv1a64 h;
  h.mix(static_cast<std::uint64_t>(round))
      .mix(static_cast<std::uint64_t>(src))
      .mix(static_cast<std::uint64_t>(dst))
      .mix(static_cast<std::uint64_t>(i));
  // Map to a modest range; exact representability does not matter because
  // both runs compute the identical sequence.
  return static_cast<double>(h.value() % 100000) / 7.0;
}

std::size_t payload_len(int round, int src, int dst) {
  util::Fnv1a64 h;
  h.mix(0x5eedULL)
      .mix(static_cast<std::uint64_t>(round))
      .mix(static_cast<std::uint64_t>(src))
      .mix(static_cast<std::uint64_t>(dst));
  return h.value() % 17;  // 0..16 doubles; zero-length paths included
}

/// The workload: kRounds rounds of alltoallv + allreduce + bcast with
/// deterministic but irregular payloads, fingerprinting everything each
/// rank receives.  Returns the per-rank FNV fingerprints.
std::vector<std::uint64_t> run_workload(Runtime& rt) {
  std::vector<std::uint64_t> digest(kRanks, 0);
  rt.run([&](Comm& c) {
    constexpr FaultPhase kPhases[] = {FaultPhase::kDD, FaultPhase::kPM, FaultPhase::kPP};
    util::Fnv1a64 h;
    const int me = c.rank();
    for (int r = 0; r < kRounds; ++r) {
      set_fault_context(static_cast<std::uint64_t>(r) + 1, kPhases[r % 3]);
      // Personalized all-to-all with irregular sizes.
      std::vector<std::vector<double>> send(kRanks);
      for (int d = 0; d < kRanks; ++d) {
        const auto n = payload_len(r, me, d);
        for (std::size_t i = 0; i < n; ++i)
          send[static_cast<std::size_t>(d)].push_back(element(r, me, d, static_cast<int>(i)));
      }
      // Move-based exchange: on clean links each slice's allocation is
      // handed to its receiver (zero-copy fast path); on framed links the
      // slice is consumed all the same, so behavior is path-invariant.
      const auto got = c.alltoallv(std::move(send));
      for (const auto& v : got)
        for (double x : v) h.mix(x);
      // A reduction everyone depends on.
      h.mix(c.allreduce_sum(element(r, me, me, r)));
      // A broadcast from a rotating root.
      std::vector<double> blob;
      const int root = r % kRanks;
      if (me == root) blob = {element(r, root, root, 0), element(r, root, root, 1)};
      c.bcast(blob, root);
      for (double x : blob) h.mix(x);
    }
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
    digest[static_cast<std::size_t>(me)] = h.value();
  });
  return digest;
}

struct Scenario {
  const char* name;
  std::vector<const char*> specs;
};

TEST(ParxSoak, LossyLinksAreBitwiseInvisible) {
  Runtime clean(kRanks);
  const auto expected = run_workload(clean);
  const auto clean_totals = clean.ledger().totals();
  ASSERT_GT(clean_totals.messages, 0u);
  EXPECT_EQ(clean_totals.retransmit_messages, 0u);

  const Scenario scenarios[] = {
      {"drop", {"*:any:*:drop@0.03"}},
      {"corrupt", {"*:any:*:corrupt@0.02"}},
      {"dup", {"*:any:*:dup@0.05"}},
      {"reorder", {"*:any:*:reorder@0.1"}},
      {"mixed",
       {"*:any:*:drop@0.02", "*:any:*:corrupt@0.01", "*:any:*:dup@0.03",
        "*:any:*:reorder@0.05"}},
  };
  for (const auto& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    Runtime rt(kRanks);
    FaultPlan plan;
    for (const char* s : sc.specs) {
      auto spec = parse_fault_at(s);
      ASSERT_TRUE(spec.has_value()) << s;
      plan.at(*spec);
    }
    rt.set_fault_plan(plan);
    rt.set_transport_tuning({.rto_s = 0.001, .backoff = 1.5, .max_attempts = 30,
                             .tick_s = 0.0005});
    const auto got = run_workload(rt);
    EXPECT_EQ(got, expected) << "lossy run diverged under " << sc.name;

    // Logical traffic is identical to the clean run; the repair cost shows
    // up only in the separate retransmit columns.
    const auto t = rt.ledger().totals();
    EXPECT_EQ(t.messages, clean_totals.messages) << sc.name;
    EXPECT_EQ(t.bytes, clean_totals.bytes) << sc.name;
    if (std::string(sc.name) == "drop" || std::string(sc.name) == "corrupt" ||
        std::string(sc.name) == "mixed") {
      EXPECT_GT(t.retransmit_messages, 0u)
          << sc.name << ": expected the plan to force retransmissions";
      EXPECT_GT(t.retransmit_bytes, 0u) << sc.name;
    }
  }
}

/// Workload with requests held in flight across other collectives: each
/// round posts an ialltoallv, runs an allreduce and an isend/irecv wave
/// (drained with wait_all) under the exchange, then drains the exchange.
/// Exercises the retransmission sublayer against pending requests.
std::vector<std::uint64_t> run_inflight_workload(Runtime& rt) {
  std::vector<std::uint64_t> digest(kRanks, 0);
  rt.run([&](Comm& c) {
    constexpr FaultPhase kPhases[] = {FaultPhase::kDD, FaultPhase::kPM, FaultPhase::kPP};
    util::Fnv1a64 h;
    const int me = c.rank();
    for (int r = 0; r < kRounds / 2; ++r) {
      set_fault_context(static_cast<std::uint64_t>(r) + 1, kPhases[r % 3]);
      std::vector<std::vector<double>> send(kRanks);
      for (int d = 0; d < kRanks; ++d) {
        const auto n = payload_len(r, me, d);
        for (std::size_t i = 0; i < n; ++i)
          send[static_cast<std::size_t>(d)].push_back(element(r, me, d, static_cast<int>(i)));
      }
      auto a2a = c.ialltoallv(send);
      // While the exchange is in flight: a reduction ...
      h.mix(c.allreduce_sum(element(r, me, me, r)));
      // ... and a tagged point-to-point ring wave drained with wait_all.
      const int nxt = (me + 1) % kRanks, prv = (me + kRanks - 1) % kRanks;
      const std::vector<double> ring{element(r, me, nxt, 0), element(r, me, nxt, 1)};
      std::vector<Request> wave;
      wave.push_back(c.irecv(prv, 7));
      wave.push_back(c.isend(nxt, 7, std::span<const double>(ring)));
      c.wait_all(std::span<Request>(wave));
      for (double x : wave[0].take<double>()) h.mix(x);
      // Drain the exchange last: its payloads crossed everything above.
      const auto got = c.wait_alltoallv(a2a);
      for (const auto& v : got)
        for (double x : v) h.mix(x);
    }
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
    digest[static_cast<std::size_t>(me)] = h.value();
  });
  return digest;
}

TEST(ParxSoak, InflightRequestsSurviveLossyLinksBitwise) {
  Runtime clean(kRanks);
  const auto expected = run_inflight_workload(clean);
  EXPECT_EQ(clean.ledger().totals().retransmit_messages, 0u);

  Runtime rt(kRanks);
  FaultPlan plan;
  plan.at(*parse_fault_at("*:any:*:drop@0.03"))
      .at(*parse_fault_at("*:any:*:dup@0.03"))
      .at(*parse_fault_at("*:any:*:reorder@0.05"));
  rt.set_fault_plan(plan);
  rt.set_transport_tuning({.rto_s = 0.001, .backoff = 1.5, .max_attempts = 30,
                           .tick_s = 0.0005});
  const auto got = run_inflight_workload(rt);
  EXPECT_EQ(got, expected) << "in-flight requests diverged under a lossy link";
  EXPECT_GT(rt.ledger().totals().retransmit_messages, 0u);
  EXPECT_EQ(rt.ledger().totals().messages, clean.ledger().totals().messages);
}

TEST(ParxSoak, FastFramedAndLossyPathsAgreeBitwiseWithIdenticalLedgers) {
  // The same workload over all three routing regimes -- pure fast path
  // (no plan), framed-but-clean (rate-0 plans, wildcard and partial), and
  // genuinely lossy (partial plan, one covered sender) -- must produce
  // bitwise-identical results and identical *logical* ledger accounting;
  // only the retransmit columns may differ.
  Runtime clean(kRanks);
  const auto expected = run_workload(clean);
  const auto clean_totals = clean.ledger().totals();
  ASSERT_GT(clean_totals.messages, 0u);

  // The lossy run keeps the 1 ms RTO so its retransmissions come fast.
  // The clean runs assert zero retransmits, so they need TransportTuning's
  // precondition -- ack latency (ack_delay_s + tick_s, plus scheduling)
  // below rto_s -- with room for a loaded or sanitized host to deschedule
  // the monitor thread: no retransmit timer fires on a clean link then.
  const TransportTuning fast{.rto_s = 0.001, .backoff = 1.5, .max_attempts = 30,
                             .tick_s = 0.0005};
  const TransportTuning clean_link{.rto_s = 0.5, .backoff = 1.5, .max_attempts = 30,
                                   .tick_s = 0.0005};
  constexpr double kSchedulingAllowanceS = 0.1;
  ASSERT_LT(clean_link.ack_delay_s + clean_link.tick_s + kSchedulingAllowanceS,
            clean_link.rto_s);
  const std::pair<Scenario, TransportTuning> scenarios[] = {
      {{"framed-all-rate0", {"*:any:*:drop@0"}}, clean_link},
      {{"framed-partial-rate0", {"*:any:1:drop@0"}}, clean_link},
      {{"lossy-partial", {"*:any:1:drop@0.05"}}, fast},
  };
  for (const auto& [sc, tuning] : scenarios) {
    SCOPED_TRACE(sc.name);
    Runtime rt(kRanks);
    FaultPlan plan;
    for (const char* s : sc.specs) {
      auto spec = parse_fault_at(s);
      ASSERT_TRUE(spec.has_value()) << s;
      plan.at(*spec);
    }
    rt.set_fault_plan(plan);
    rt.set_transport_tuning(tuning);
    const auto got = run_workload(rt);
    EXPECT_EQ(got, expected) << "diverged under " << sc.name;
    const auto t = rt.ledger().totals();
    EXPECT_EQ(t.messages, clean_totals.messages) << sc.name;
    EXPECT_EQ(t.bytes, clean_totals.bytes) << sc.name;
    if (std::string(sc.name) != "lossy-partial") {
      EXPECT_EQ(t.retransmit_messages, 0u)
          << sc.name << ": a clean framed run must not retransmit";
    } else {
      EXPECT_GT(t.retransmit_messages, 0u)
          << sc.name << ": expected the lossy sender to force retransmissions";
    }
  }
}

TEST(ParxSoak, DifferentLinkSeedsDrawDifferentButReproduciblePatterns) {
  const auto run_with_seed = [](std::uint64_t seed) {
    Runtime rt(kRanks);
    FaultPlan plan;
    plan.at(*parse_fault_at("*:any:*:drop@0.05")).link_seed(seed);
    rt.set_fault_plan(plan);
    rt.set_transport_tuning({.rto_s = 0.001, .backoff = 1.5, .max_attempts = 30,
                             .tick_s = 0.0005});
    const auto digest = run_workload(rt);
    return std::pair{digest, rt.ledger().totals().retransmit_messages};
  };
  const auto [d1, retx1] = run_with_seed(1);
  const auto [d1b, retx1b] = run_with_seed(1);
  const auto [d2, retx2] = run_with_seed(2);
  // Payloads are exact regardless of seed.  (Retransmit *counts* are not
  // compared exactly: a cumulative ack from later traffic can suppress a
  // retransmit depending on thread timing; only delivery is deterministic.)
  EXPECT_EQ(d1, d1b);
  EXPECT_EQ(d1, d2);
  EXPECT_GT(retx1, 0u);
  EXPECT_GT(retx1b, 0u);
  EXPECT_GT(retx2, 0u);
}

}  // namespace
}  // namespace greem::parx
