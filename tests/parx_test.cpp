// Tests for the parx message-passing runtime: point-to-point ordering,
// every collective, comm_split semantics, traffic accounting, and failure
// poisoning.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "parx/comm.hpp"
#include "parx/fault.hpp"
#include "parx/runtime.hpp"
#include "parx/transport.hpp"
#include "telemetry/telemetry.hpp"

namespace greem::parx {
namespace {

TEST(Parx, RanksSeeCorrectRankAndSize) {
  std::atomic<int> sum{0};
  run_ranks(5, [&](Comm& c) {
    EXPECT_EQ(c.size(), 5);
    sum += c.rank();
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(Parx, SendRecvDeliversPayload) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<int> data{1, 2, 3};
      c.send(1, 7, std::span<const int>(data));
    } else {
      const auto got = c.recv<int>(0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Parx, MessagesFromSameSourceAndTagArriveInOrder) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        const std::vector<int> v{i};
        c.send(1, 1, std::span<const int>(v));
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(c.recv<int>(0, 1).at(0), i);
      }
    }
  });
}

TEST(Parx, TagsSelectMessages) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<int> a{10}, b{20};
      c.send(1, 100, std::span<const int>(a));
      c.send(1, 200, std::span<const int>(b));
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(c.recv<int>(0, 200).at(0), 20);
      EXPECT_EQ(c.recv<int>(0, 100).at(0), 10);
    }
  });
}

TEST(Parx, BarrierSynchronizes) {
  std::atomic<int> before{0}, after{0};
  run_ranks(8, [&](Comm& c) {
    before.fetch_add(1);
    c.barrier();
    EXPECT_EQ(before.load(), 8);  // everyone arrived before anyone proceeds
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 8);
}

TEST(Parx, AlltoallvExchangesPersonalizedPayloads) {
  const int p = 6;
  run_ranks(p, [&](Comm& c) {
    std::vector<std::vector<int>> send(p);
    for (int d = 0; d < p; ++d) {
      // rank r sends d copies of value 100*r + d to rank d.
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d),
                                               100 * c.rank() + d);
    }
    auto recv = c.alltoallv(send);
    for (int s = 0; s < p; ++s) {
      const auto& buf = recv[static_cast<std::size_t>(s)];
      ASSERT_EQ(buf.size(), static_cast<std::size_t>(c.rank()));
      for (int v : buf) EXPECT_EQ(v, 100 * s + c.rank());
    }
  });
}

TEST(Parx, BcastDistributesFromEveryRoot) {
  for (int root = 0; root < 5; ++root) {
    run_ranks(5, [&](Comm& c) {
      std::vector<double> v;
      if (c.rank() == root) v = {1.5, 2.5, 3.5};
      c.bcast(v, root);
      EXPECT_EQ(v, (std::vector<double>{1.5, 2.5, 3.5}));
    });
  }
}

TEST(Parx, ReduceSumsElementwise) {
  const int p = 7;
  run_ranks(p, [&](Comm& c) {
    std::vector<long> v{static_cast<long>(c.rank()), 1};
    c.reduce_sum(std::span<long>(v), 2);
    if (c.rank() == 2) {
      EXPECT_EQ(v[0], p * (p - 1) / 2);
      EXPECT_EQ(v[1], p);
    }
  });
}

TEST(Parx, AllreduceVariants) {
  run_ranks(6, [](Comm& c) {
    EXPECT_EQ(c.allreduce_sum(1), 6);
    EXPECT_EQ(c.allreduce_max(c.rank()), 5);
    EXPECT_EQ(c.allreduce_min(c.rank() + 10), 10);
    EXPECT_DOUBLE_EQ(c.allreduce_sum(0.5), 3.0);
  });
}

TEST(Parx, GathervConcatenatesInRankOrder) {
  run_ranks(4, [](Comm& c) {
    std::vector<int> mine(static_cast<std::size_t>(c.rank()), c.rank());
    auto all = c.gatherv(std::span<const int>(mine), 0);
    if (c.rank() == 0) {
      EXPECT_EQ(all, (std::vector<int>{1, 2, 2, 3, 3, 3}));
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Parx, AllgathervGivesEveryoneEverything) {
  run_ranks(3, [](Comm& c) {
    const std::vector<int> mine{c.rank() * 2};
    auto all = c.allgatherv(std::span<const int>(mine));
    EXPECT_EQ(all, (std::vector<int>{0, 2, 4}));
  });
}

TEST(Parx, SplitPartitionsByColorAndOrdersByKey) {
  run_ranks(6, [](Comm& c) {
    // Even/odd split; key reverses the order within each group.
    Comm sub = c.split(c.rank() % 2, -c.rank());
    EXPECT_EQ(sub.size(), 3);
    // Ranks 4,2,0 (even) -> sub ranks 0,1,2; world rank recoverable.
    const int expected_world = c.rank() % 2 + 2 * (2 - sub.rank());
    EXPECT_EQ(sub.world_rank(), c.rank());
    EXPECT_EQ(c.rank(), expected_world);
    // Collectives work inside the subcommunicator.
    EXPECT_EQ(sub.allreduce_sum(1), 3);
  });
}

TEST(Parx, SplitSubCommIsIsolated) {
  run_ranks(4, [](Comm& c) {
    Comm sub = c.split(c.rank() / 2, c.rank());
    // Exchange within each pair only.
    const std::vector<int> v{c.rank()};
    auto all = sub.allgatherv(std::span<const int>(v));
    if (c.rank() < 2) {
      EXPECT_EQ(all, (std::vector<int>{0, 1}));
    } else {
      EXPECT_EQ(all, (std::vector<int>{2, 3}));
    }
  });
}

TEST(Parx, ExchangeSizesAgrees) {
  const int p = 5;
  run_ranks(p, [&](Comm& c) {
    std::vector<std::size_t> to(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      to[static_cast<std::size_t>(d)] = static_cast<std::size_t>(10 * c.rank() + d);
    auto from = c.exchange_sizes(to);
    for (int s = 0; s < p; ++s)
      EXPECT_EQ(from[static_cast<std::size_t>(s)],
                static_cast<std::size_t>(10 * s + c.rank()));
  });
}

TEST(Parx, TrafficLedgerCountsMessagesAndBytes) {
  Runtime rt(3);
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<char> v(100);
      c.send(1, 1, std::span<const char>(v));
      c.send(2, 1, std::span<const char>(v));
    } else {
      c.recv<char>(0, 1);
    }
  });
  const auto t = rt.ledger().totals();
  EXPECT_EQ(t.messages, 2u);
  EXPECT_EQ(t.bytes, 200u);
  EXPECT_EQ(t.max_out_messages, 2u);
  EXPECT_EQ(t.max_in_messages, 1u);
}

TEST(Parx, CongestionModelSerializesBusiestEndpoint) {
  TrafficLedger ledger(10);
  // 9 senders, one receiver: cost = 9 * latency + bytes/bw at rank 0.
  for (int s = 1; s < 10; ++s) ledger.record(s, 0, 1000);
  CongestionModel m{1e-5, 1e9};
  EXPECT_NEAR(ledger.model_time(m), 9 * 1e-5 + 9000.0 / 1e9, 1e-12);
  ledger.reset();
  EXPECT_EQ(ledger.totals().messages, 0u);
}

TEST(Parx, ZeroByteSendsAreNotRecorded) {
  Runtime rt(2);
  rt.run([](Comm& c) {
    std::vector<std::vector<int>> send(2);
    if (c.rank() == 0) send[1] = {1, 2};
    auto recv = c.alltoallv(send);
    if (c.rank() == 1) {
      EXPECT_EQ(recv[0].size(), 2u);
    }
  });
  EXPECT_EQ(rt.ledger().totals().messages, 1u);  // only the non-empty payload
}

TEST(Parx, ExceptionInOneRankPoisonsAndRethrows) {
  Runtime rt(3);
  EXPECT_THROW(rt.run([](Comm& c) {
                 if (c.rank() == 1) throw std::runtime_error("boom");
                 // Other ranks block; poisoning must release them.
                 c.recv<int>((c.rank() + 1) % 3, 99);
               }),
               std::runtime_error);
  // Runtime remains usable afterwards.
  rt.run([](Comm& c) { c.barrier(); });
}

TEST(Parx, RepeatedRunsOnSameRuntime) {
  Runtime rt(4);
  for (int iter = 0; iter < 3; ++iter) {
    rt.run([&](Comm& c) {
      EXPECT_EQ(c.allreduce_sum(1), 4);
      c.barrier();
    });
  }
}

TEST(Parx, SingleRankWorldWorks) {
  run_ranks(1, [](Comm& c) {
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    std::vector<int> v{42};
    c.bcast(v, 0);
    EXPECT_EQ(c.allreduce_sum(7), 7);
    std::vector<std::vector<int>> send(1);
    send[0] = {1};
    EXPECT_EQ(c.alltoallv(send)[0], (std::vector<int>{1}));
  });
}


TEST(Parx, NestedSplitsCompose) {
  run_ranks(8, [](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());   // two halves of 4
    Comm pair = half.split(half.rank() / 2, half.rank());  // pairs
    EXPECT_EQ(pair.size(), 2);
    // World rank is preserved through both levels.
    EXPECT_EQ(pair.world_rank(), c.rank());
    // Collectives at every level stay consistent.
    EXPECT_EQ(c.allreduce_sum(1), 8);
    EXPECT_EQ(half.allreduce_sum(1), 4);
    EXPECT_EQ(pair.allreduce_sum(1), 2);
  });
}

TEST(Parx, LargePayloadRoundtrip) {
  run_ranks(2, [](Comm& c) {
    const std::size_t n = 1 << 20;  // 8 MB of doubles
    if (c.rank() == 0) {
      std::vector<double> big(n);
      for (std::size_t i = 0; i < n; ++i) big[i] = static_cast<double>(i);
      c.send(1, 5, std::span<const double>(big));
    } else {
      const auto got = c.recv<double>(0, 5);
      ASSERT_EQ(got.size(), n);
      EXPECT_DOUBLE_EQ(got[12345], 12345.0);
      EXPECT_DOUBLE_EQ(got[n - 1], static_cast<double>(n - 1));
    }
  });
}

TEST(Parx, ManyConcurrentSmallMessages) {
  // Stress the mailbox: every rank sends 100 tagged messages to every
  // other rank; all must arrive exactly once.
  const int p = 6;
  run_ranks(p, [&](Comm& c) {
    for (int d = 0; d < p; ++d) {
      if (d == c.rank()) continue;
      for (int m = 0; m < 100; ++m) {
        const std::vector<int> v{c.rank() * 1000 + m};
        c.send(d, m, std::span<const int>(v));
      }
    }
    for (int s = 0; s < p; ++s) {
      if (s == c.rank()) continue;
      for (int m = 0; m < 100; ++m) {
        EXPECT_EQ(c.recv<int>(s, m).at(0), s * 1000 + m);
      }
    }
  });
}

TEST(Fault, ParseFaultAtForms) {
  auto s = parse_fault_at("3:pp");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->step, 3u);
  EXPECT_EQ(s->phase, FaultPhase::kPP);
  EXPECT_EQ(s->kind, FaultKind::kRankAbort);
  EXPECT_EQ(s->rank, 0);

  s = parse_fault_at("2:dd:1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->phase, FaultPhase::kDD);
  EXPECT_EQ(s->rank, 1);

  s = parse_fault_at("4:any:2:send");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->phase, FaultPhase::kAny);
  EXPECT_EQ(s->kind, FaultKind::kSendFailure);
  EXPECT_EQ(s->rank, 2);

  s = parse_fault_at("1:ckpt:0:collective");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->phase, FaultPhase::kCkpt);
  EXPECT_EQ(s->kind, FaultKind::kCollectiveFailure);

  EXPECT_FALSE(parse_fault_at("").has_value());
  EXPECT_FALSE(parse_fault_at("3").has_value());
  EXPECT_FALSE(parse_fault_at("x:pp").has_value());
  EXPECT_FALSE(parse_fault_at("3:nope").has_value());
  EXPECT_FALSE(parse_fault_at("3:pp:notanumber").has_value());
  EXPECT_FALSE(parse_fault_at("3:pp:0:nokind").has_value());

  // Out-of-range numbers are rejected, never wrapped into a small value.
  EXPECT_FALSE(parse_fault_at("3:pp:4294967297").has_value()) << "rank past int";
  EXPECT_FALSE(parse_fault_at("3:pp:2147483648").has_value()) << "rank past int";
  EXPECT_FALSE(parse_fault_at("18446744073709551617:pp").has_value()) << "step past u64";
  EXPECT_FALSE(parse_fault_at("18446744073709551614:pp").has_value())
      << "a literal step may not alias the kEveryStep sentinel";
  s = parse_fault_at("18446744073709551613:pp:2147483647");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->step, kEveryStep - 1);
  EXPECT_EQ(s->rank, 2147483647);
}

TEST(Fault, RandomPlanIsDeterministicInSeed) {
  const auto a = FaultPlan::random(99, 5, 10, 4);
  const auto b = FaultPlan::random(99, 5, 10, 4);
  const auto c = FaultPlan::random(100, 5, 10, 4);
  ASSERT_EQ(a.specs().size(), 5u);
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].step, b.specs()[i].step);
    EXPECT_EQ(a.specs()[i].phase, b.specs()[i].phase);
    EXPECT_EQ(a.specs()[i].rank, b.specs()[i].rank);
    EXPECT_GE(a.specs()[i].step, 1u);
    EXPECT_LE(a.specs()[i].step, 10u);
    EXPECT_LT(a.specs()[i].rank, 4);
  }
  bool any_differs = false;
  for (std::size_t i = 0; i < a.specs().size(); ++i)
    any_differs = any_differs || a.specs()[i].step != c.specs()[i].step ||
                  a.specs()[i].rank != c.specs()[i].rank;
  EXPECT_TRUE(any_differs) << "different seeds should draw different plans";
}

TEST(Fault, InjectedSendFaultSurfacesOnEveryRankAndRecovers) {
  Runtime rt(3);
  rt.set_fault_plan(FaultPlan().at({.step = 1,
                                    .phase = FaultPhase::kAny,
                                    .kind = FaultKind::kCollectiveFailure,
                                    .rank = 1,
                                    .times = 1}));
  std::atomic<int> comm_errors{0};
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    try {
      c.barrier();
      // Rank 1 throws at the barrier entry; everyone else sees the flag.
      for (;;) c.barrier();
    } catch (const CommError&) {
      comm_errors.fetch_add(1);
    }
    c.fault_recover();
    set_fault_context(2, FaultPhase::kAny);
    // Comm state is as-new after recovery: collectives work again.
    EXPECT_EQ(c.allreduce_sum(1), 3);
    if (c.rank() == 0) {
      c.send(2, 7, std::span<const int>(std::vector<int>{41}));
    } else if (c.rank() == 2) {
      EXPECT_EQ(c.recv<int>(0, 7).at(0), 41);
    }
    c.barrier();
  });
  EXPECT_EQ(comm_errors.load(), 3);
}

TEST(Parx, ReduceLeavesNonRootSendBuffersUntouched) {
  // Regression: reduce used to accumulate partial sums into the caller's
  // buffer on interior tree ranks, corrupting what MPI semantics treat as
  // a pure send buffer.
  run_ranks(4, [](Comm& c) {
    std::vector<int> buf{c.rank() + 1, 10 * (c.rank() + 1)};
    const std::vector<int> orig = buf;
    c.reduce_sum(std::span<int>(buf), /*root=*/0);
    if (c.rank() == 0) {
      EXPECT_EQ(buf[0], 1 + 2 + 3 + 4);
      EXPECT_EQ(buf[1], 10 + 20 + 30 + 40);
    } else {
      EXPECT_EQ(buf, orig) << "non-root send buffer was mutated on rank " << c.rank();
    }
    // Same property for every root, including interior tree positions.
    for (int root = 1; root < 4; ++root) {
      std::vector<int> v{c.rank()};
      c.reduce_sum(std::span<int>(v), root);
      if (c.rank() == root) EXPECT_EQ(v[0], 0 + 1 + 2 + 3);
      else EXPECT_EQ(v[0], c.rank());
    }
  });
}

TEST(Parx, RecvDeadlineThrowsTimeoutError) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      EXPECT_THROW((void)c.recv_bytes(1, 9, /*timeout_s=*/0.08), TimeoutError);
    }
    c.barrier();  // nobody ever sends; only the deadline releases rank 0
  });
}

TEST(Parx, BarrierDeadlineThrowsTimeoutError) {
  std::atomic<int> timeouts{0};
  run_ranks(2, [&](Comm& c) {
    if (c.rank() == 0) {
      try {
        c.barrier(/*timeout_s=*/0.08);
      } catch (const TimeoutError&) {
        timeouts.fetch_add(1);
      }
    } else {
      // Arrive late: rank 0's stale arrival completes this wait instantly.
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      c.barrier();
    }
  });
  EXPECT_EQ(timeouts.load(), 1);
}

TEST(Fault, ParseWildcardsAndLinkKinds) {
  auto s = parse_fault_at("*:any:*:drop@0.01");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->step, kEveryStep);
  EXPECT_EQ(s->rank, kEveryRank);
  EXPECT_EQ(s->kind, FaultKind::kLinkDrop);
  EXPECT_DOUBLE_EQ(s->rate, 0.01);
  EXPECT_EQ(s->times, kUnlimited);

  s = parse_fault_at("2:pp:*:lose");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, FaultKind::kLinkBlackhole);
  EXPECT_DOUBLE_EQ(s->rate, 1.0);
  EXPECT_EQ(s->times, 1) << "each 'lose' firing dooms exactly one message";

  s = parse_fault_at("5:pm:1:corrupt@0.001x10");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, FaultKind::kLinkCorrupt);
  EXPECT_DOUBLE_EQ(s->rate, 0.001);
  EXPECT_EQ(s->times, 10);

  s = parse_fault_at("*:any:3:hang");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, FaultKind::kHang);
  EXPECT_EQ(s->rank, 3);

  s = parse_fault_at("1:dd:*:dup@0.5");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, FaultKind::kLinkDuplicate);

  EXPECT_TRUE(parse_fault_at("1:dd:0:reorder@0.25").has_value());
  EXPECT_FALSE(parse_fault_at("*:pp:0:drop@1.5").has_value()) << "rate must be in [0,1]";
  EXPECT_FALSE(parse_fault_at("*:pp:0:drop@").has_value());
  EXPECT_FALSE(parse_fault_at("1:pp:0:abort@0.5").has_value())
      << "rates are a link-fault concept";
  EXPECT_FALSE(parse_fault_at("1:pp:0:send@0.1x2").has_value());
  EXPECT_FALSE(parse_fault_at("1:pp:0:drop@0.1x0").has_value());
  EXPECT_FALSE(parse_fault_at("3:pp:1:drop@0.5x4294967297").has_value()) << "budget past int";
  EXPECT_FALSE(parse_fault_at("*:any:*:drop@nan").has_value()) << "rate must be finite";
  EXPECT_FALSE(parse_fault_at("*:any:*:drop@-nan").has_value());
  EXPECT_FALSE(parse_fault_at("*:any:*:drop@inf").has_value());
  s = parse_fault_at("3:pp:1:drop@0.5x2147483647");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->times, 2147483647);
}

TEST(Fault, PlanSplitsIntoFailstopAndLinkSubsets) {
  FaultPlan plan;
  plan.at({.step = 1, .phase = FaultPhase::kAny, .kind = FaultKind::kRankAbort, .rank = 0})
      .at(*parse_fault_at("*:any:*:drop@0.1"))
      .at(*parse_fault_at("2:pp:*:lose"));
  EXPECT_EQ(plan.failstop_specs().size(), 1u);
  EXPECT_EQ(plan.link_specs().size(), 2u);
}

TEST(Fault, LinkDropIsRetransmittedAndDeliveredIntact) {
  auto& retx = telemetry::Registry::global().counter("parx/retransmits");
  const std::uint64_t retx0 = retx.value();
  Runtime rt(2);
  // Deterministically drop the first 2 transmissions of everything.
  FaultSpec drop;
  drop.step = kEveryStep;
  drop.phase = FaultPhase::kAny;
  drop.rank = kEveryRank;
  drop.kind = FaultKind::kLinkDrop;
  drop.rate = 1.0;
  drop.times = 2;
  rt.set_fault_plan(FaultPlan().at(drop));
  rt.set_transport_tuning({.rto_s = 0.002, .backoff = 1.5, .max_attempts = 8, .tick_s = 0.001});
  rt.run([](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    std::vector<int> data(300);
    std::iota(data.begin(), data.end(), 7);
    if (c.rank() == 0) c.send(1, 3, std::span<const int>(data));
    else EXPECT_EQ(c.recv<int>(0, 3), data);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
#if GREEM_TELEMETRY_ENABLED
  EXPECT_GE(retx.value() - retx0, 2u);
#else
  (void)retx0;
#endif
}

TEST(Fault, LinkCorruptionIsCaughtByCrcAndHealed) {
  auto& caught = telemetry::Registry::global().counter("parx/corrupt_detected");
  const std::uint64_t caught0 = caught.value();
  Runtime rt(2);
  FaultSpec corrupt;
  corrupt.step = kEveryStep;
  corrupt.phase = FaultPhase::kAny;
  corrupt.rank = kEveryRank;
  corrupt.kind = FaultKind::kLinkCorrupt;
  corrupt.rate = 1.0;
  corrupt.times = 1;
  rt.set_fault_plan(FaultPlan().at(corrupt));
  rt.set_transport_tuning({.rto_s = 0.002, .backoff = 1.5, .max_attempts = 8, .tick_s = 0.001});
  rt.run([](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    const std::vector<double> data{1.5, -2.5, 3.25};
    if (c.rank() == 0) c.send(1, 4, std::span<const double>(data));
    else EXPECT_EQ(c.recv<double>(0, 4), data);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
#if GREEM_TELEMETRY_ENABLED
  EXPECT_EQ(caught.value() - caught0, 1u);
#else
  (void)caught0;
#endif
}

TEST(Fault, DuplicatesAndReordersAreInvisibleToTheApplication) {
  auto& dups = telemetry::Registry::global().counter("parx/duplicates_dropped");
  const std::uint64_t dups0 = dups.value();
  Runtime rt(3);
  FaultPlan plan;
  plan.at(*parse_fault_at("*:any:*:dup@1"));
  plan.at(*parse_fault_at("*:any:*:reorder@0.5"));
  rt.set_fault_plan(plan);
  rt.run([](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    // Ordered stream per (src, tag) pair must survive dup + reorder.
    for (int m = 0; m < 20; ++m) {
      const std::vector<int> v{c.rank() * 100 + m};
      c.send((c.rank() + 1) % 3, 5, std::span<const int>(v));
    }
    const int src = (c.rank() + 2) % 3;
    for (int m = 0; m < 20; ++m) EXPECT_EQ(c.recv<int>(src, 5).at(0), src * 100 + m);
    // Collectives still agree.
    EXPECT_EQ(c.allreduce_sum(1), 3);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
#if GREEM_TELEMETRY_ENABLED
  EXPECT_GT(dups.value() - dups0, 0u);
#else
  (void)dups0;
#endif
}

TEST(Fault, BlackholeExhaustsRetriesAndRecoversLikeAnyFault) {
  Runtime rt(2);
  rt.set_fault_plan(FaultPlan().at(*parse_fault_at("1:pp:*:lose")));
  rt.set_transport_tuning({.rto_s = 0.001, .backoff = 1.5, .max_attempts = 4, .tick_s = 0.0005});
  std::atomic<int> comm_errors{0};
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    const std::vector<int> v{13};
    try {
      if (c.rank() == 0) {
        c.send(1, 2, std::span<const int>(v));
        for (;;) c.barrier();  // wait for the transport to give up
      } else {
        (void)c.recv<int>(0, 2);
      }
      FAIL() << "blackholed message should have surfaced as CommError";
    } catch (const CommError&) {
      comm_errors.fetch_add(1);
    }
    c.fault_recover();
    // The lose budget is spent: the retried message goes through.
    set_fault_context(2, FaultPhase::kPP);
    if (c.rank() == 0) c.send(1, 2, std::span<const int>(v));
    else EXPECT_EQ(c.recv<int>(0, 2).at(0), 13);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
  EXPECT_EQ(comm_errors.load(), 2);
}

TEST(Fault, WatchdogConvertsHangIntoRecoverableFault) {
  auto& fired = telemetry::Registry::global().counter("parx/watchdog_fired");
  const std::uint64_t fired0 = fired.value();
  Runtime rt(2);
  rt.set_fault_plan(FaultPlan().at(*parse_fault_at("1:any:0:hang")));
  rt.set_watchdog({.quiescence_s = 0.15, .dump_path = "", .flight_dump_path = ""});
  std::atomic<int> comm_errors{0};
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kDD);
    try {
      c.barrier();  // rank 0 freezes inside; rank 1 blocks waiting
      for (;;) c.barrier();
    } catch (const CommError&) {
      comm_errors.fetch_add(1);
    }
    c.fault_recover();
    set_fault_context(2, FaultPhase::kAny);
    EXPECT_EQ(c.allreduce_sum(1), 2);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
  EXPECT_EQ(comm_errors.load(), 2);
#if GREEM_TELEMETRY_ENABLED
  EXPECT_GE(fired.value() - fired0, 1u);
#else
  (void)fired0;
#endif
}

TEST(Fault, RetransmitTrafficIsAccountedSeparately) {
  Runtime rt(2);
  FaultSpec drop;
  drop.step = kEveryStep;
  drop.phase = FaultPhase::kAny;
  drop.rank = kEveryRank;
  drop.kind = FaultKind::kLinkDrop;
  drop.rate = 1.0;
  drop.times = 1;
  rt.set_fault_plan(FaultPlan().at(drop));
  rt.set_transport_tuning({.rto_s = 0.002, .backoff = 1.5, .max_attempts = 8, .tick_s = 0.001});
  rt.run([](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    const std::vector<int> v{1, 2, 3, 4};
    if (c.rank() == 0) c.send(1, 6, std::span<const int>(v));
    else (void)c.recv<int>(0, 6);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
  const auto t = rt.ledger().totals();
  EXPECT_EQ(t.messages, 1u) << "logical traffic counts the send once";
  EXPECT_GE(t.retransmit_messages, 1u);
  EXPECT_EQ(t.retransmit_bytes % (4 * sizeof(int)), 0u);
}

TEST(Parx, WaitAnyCompletesOutOfPostingOrder) {
  // Rank 0 posts receives from ranks 1 and 2 but rank 2's payload arrives
  // first (rank 1 holds its send until rank 0 releases it), so wait_any
  // must hand back the *later-posted* request first.
  run_ranks(3, [](Comm& c) {
    const int tag = 9;
    if (c.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(c.irecv(1, tag));
      reqs.push_back(c.irecv(2, tag));
      const int first = c.wait_any(std::span<Request>(reqs));
      EXPECT_EQ(first, 1) << "rank 2's payload was the only one in flight";
      EXPECT_EQ(reqs[1].take<int>().at(0), 2);
      const std::vector<int> go{1};
      c.send(1, 0, std::span<const int>(go));  // release rank 1
      const int second = c.wait_any(std::span<Request>(reqs));
      EXPECT_EQ(second, 0);
      EXPECT_EQ(reqs[0].take<int>().at(0), 1);
    } else if (c.rank() == 1) {
      (void)c.recv<int>(0, 0);  // wait until rank 0 drained rank 2
      const std::vector<int> v{1};
      c.send(0, tag, std::span<const int>(v));
    } else {
      const std::vector<int> v{2};
      c.send(0, tag, std::span<const int>(v));
    }
  });
}

TEST(Parx, InterleavedCollectivesKeepTagsIsolated) {
  // Two all-to-alls posted back to back plus an allreduce while both are
  // in flight; the sequenced collective tags must keep the three payload
  // streams apart even though they share every (src, dst) pair.  Draining
  // the second exchange before the first exercises out-of-order drains.
  run_ranks(4, [](Comm& c) {
    const int p = c.size();
    auto payload = [&](int round, int dst) {
      return std::vector<int>{1000 * round + 10 * c.rank() + dst};
    };
    std::vector<std::vector<int>> a(static_cast<std::size_t>(p)), b(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      a[static_cast<std::size_t>(d)] = payload(1, d);
      b[static_cast<std::size_t>(d)] = payload(2, d);
    }
    auto ha = c.ialltoallv(a);
    auto hb = c.ialltoallv(b);
    EXPECT_EQ(c.allreduce_sum(1), p);  // collective between post and drain
    auto rb = c.wait_alltoallv(hb);
    auto ra = c.wait_alltoallv(ha);
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(ra[static_cast<std::size_t>(s)].at(0), 1000 + 10 * s + c.rank());
      EXPECT_EQ(rb[static_cast<std::size_t>(s)].at(0), 2000 + 10 * s + c.rank());
    }
  });
}

TEST(Fault, WatchdogIgnoresParkedWaitWithLiveTraffic) {
  // Regression: a rank parked in wait_all while messages are still landing
  // is making progress, not hanging.  Rank 1 spreads four sends over ~2.7x
  // the quiescence window; each arrival restamps rank 0's blocked clock,
  // so the watchdog must stay silent for the whole wait.
  auto& fired = telemetry::Registry::global().counter("parx/watchdog_fired");
  const std::uint64_t fired0 = fired.value();
  Runtime rt(2);
  rt.set_watchdog({.quiescence_s = 0.15, .dump_path = "", .flight_dump_path = ""});
  rt.run([](Comm& c) {
    const int tag = 11;
    if (c.rank() == 0) {
      std::vector<Request> reqs;
      for (int i = 0; i < 4; ++i) reqs.push_back(c.irecv(1, tag + i));
      EXPECT_NO_THROW(c.wait_all(std::span<Request>(reqs)));
      for (int i = 0; i < 4; ++i) EXPECT_EQ(reqs[static_cast<std::size_t>(i)].take<int>().at(0), i);
    } else {
      for (int i = 0; i < 4; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const std::vector<int> v{i};
        c.send(0, tag + i, std::span<const int>(v));
      }
    }
  });
  EXPECT_EQ(fired.value() - fired0, 0u);
}

TEST(Fault, WatchdogStillFiresOnGenuinelyStuckWait) {
  // The converse guard: a rank parked in wait() whose peer froze (hang
  // fault) receives no traffic at all, so the quiescence clock runs out
  // and the watchdog converts the hang into a recoverable fault.
  auto& fired = telemetry::Registry::global().counter("parx/watchdog_fired");
  const std::uint64_t fired0 = fired.value();
  Runtime rt(2);
  rt.set_fault_plan(FaultPlan().at(*parse_fault_at("1:any:1:hang")));
  rt.set_watchdog({.quiescence_s = 0.15, .dump_path = "", .flight_dump_path = ""});
  std::atomic<int> comm_errors{0};
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kDD);
    try {
      if (c.rank() == 0) {
        Request r = c.irecv(1, 3);
        c.wait(r);  // rank 1 froze before sending: no arrivals, ever
      } else {
        c.barrier();  // freezes here (hang fault), never sends
      }
      FAIL() << "stuck wait should have surfaced as CommError";
    } catch (const CommError&) {
      comm_errors.fetch_add(1);
    }
    c.fault_recover();
    set_fault_context(2, FaultPhase::kAny);
    EXPECT_EQ(c.allreduce_sum(1), 2);
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
  EXPECT_EQ(comm_errors.load(), 2);
#if GREEM_TELEMETRY_ENABLED
  EXPECT_GE(fired.value() - fired0, 1u);
#else
  (void)fired0;
#endif
}

TEST(Fault, SpentSpecDoesNotRefire) {
  Runtime rt(2);
  rt.set_fault_plan(FaultPlan().at({.step = 1,
                                    .phase = FaultPhase::kAny,
                                    .kind = FaultKind::kRankAbort,
                                    .rank = 0,
                                    .times = 1}));
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kDD);
    try {
      c.barrier();
      for (;;) c.barrier();
    } catch (const CommError&) {
    }
    c.fault_recover();
    // Same (step, phase) context again: the budget is spent, no re-fire.
    set_fault_context(1, FaultPhase::kDD);
    EXPECT_NO_THROW(c.barrier());
    EXPECT_EQ(c.allreduce_sum(c.rank()), 1);
  });
}

TEST(Fastpath, MoveSendIsZeroCopyAcrossRanks) {
  // With no plan installed, a move-send hands the sender's allocation
  // straight to the receiver: the received vector reuses the same buffer.
  std::atomic<const int*> sent_data{nullptr};
  run_ranks(2, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v(1024);
      std::iota(v.begin(), v.end(), 0);
      sent_data.store(v.data());
      c.send(1, 9, std::move(v));
    } else {
      while (sent_data.load() == nullptr) std::this_thread::yield();
      const auto got = c.recv<int>(0, 9);
      EXPECT_EQ(got.data(), sent_data.load()) << "fast path must not copy the payload";
      EXPECT_EQ(got.size(), 1024u);
      EXPECT_EQ(got.at(1023), 1023);
    }
  });
}

TEST(Fastpath, PartialPlanFramesOnlyCoveredSenders) {
  auto& frames = telemetry::Registry::global().counter("parx/frames_sent");
  auto& fast = telemetry::Registry::global().counter("parx/fastpath_messages");
  const std::uint64_t frames0 = frames.value(), fast0 = fast.value();
  Runtime rt(2);
  // The plan names sender rank 1 only; rank 0's sends must keep the
  // zero-copy fast path even though a transport is installed.
  FaultSpec idle;
  idle.step = kEveryStep;
  idle.phase = FaultPhase::kAny;
  idle.rank = 1;
  idle.kind = FaultKind::kLinkDrop;
  idle.rate = 0.0;
  idle.times = kUnlimited;
  rt.set_fault_plan(FaultPlan().at(idle));
  const std::vector<int> a{1, 2, 3}, b{4, 5, 6};
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    if (c.rank() == 0) {
      c.send(1, 11, std::span<const int>(a));
      EXPECT_EQ(c.recv<int>(1, 12), b);
    } else {
      EXPECT_EQ(c.recv<int>(0, 11), a);
      c.send(0, 12, std::span<const int>(b));
    }
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
#if GREEM_TELEMETRY_ENABLED
  EXPECT_EQ(frames.value() - frames0, 1u) << "only rank 1's send is framed";
  EXPECT_EQ(fast.value() - fast0, 1u) << "rank 0's send takes the fast path";
#else
  (void)frames0;
  (void)fast0;
#endif
}

TEST(Fastpath, MidJobPlanFlipRoutesNewTrafficFramed) {
  auto& frames = telemetry::Registry::global().counter("parx/frames_sent");
  const std::uint64_t frames0 = frames.value();
  Runtime rt(2);
  const std::vector<int> a{10, 20, 30}, b{40, 50, 60};
  rt.run([&](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    // Phase 1: no plan, both directions ride the fast path.
    if (c.rank() == 0) {
      c.send(1, 21, std::span<const int>(a));
      EXPECT_EQ(c.recv<int>(1, 22), b);
    } else {
      EXPECT_EQ(c.recv<int>(0, 21), a);
      c.send(0, 22, std::span<const int>(b));
    }
    // Globally quiescent, barrier-bracketed plan install from one rank:
    // the contract under which a mid-job flip is legal.
    c.barrier();
    if (c.rank() == 0) {
      FaultSpec idle;
      idle.step = kEveryStep;
      idle.phase = FaultPhase::kAny;
      idle.rank = kEveryRank;
      idle.kind = FaultKind::kLinkDrop;
      idle.rate = 0.0;
      idle.times = kUnlimited;
      rt.set_fault_plan(FaultPlan().at(idle));
    }
    c.barrier();
    // Phase 2: the same exchange now rides the framed transport, with
    // bitwise-identical results.
    if (c.rank() == 0) {
      c.send(1, 23, std::span<const int>(a));
      EXPECT_EQ(c.recv<int>(1, 24), b);
    } else {
      EXPECT_EQ(c.recv<int>(0, 23), a);
      c.send(0, 24, std::span<const int>(b));
    }
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
#if GREEM_TELEMETRY_ENABLED
  // Exactly the two phase-2 data sends are framed (the phase-2 barrier
  // traffic is framed too, so allow more than the data frames).
  EXPECT_GE(frames.value() - frames0, 2u);
#else
  (void)frames0;
#endif
}

TEST(Fastpath, PiggybackedAcksCoalesce) {
  auto& frames = telemetry::Registry::global().counter("parx/frames_sent");
  auto& standalone = telemetry::Registry::global().counter("parx/acks");
  auto& piggy = telemetry::Registry::global().counter("parx/acks_piggybacked");
  const std::uint64_t frames0 = frames.value(), standalone0 = standalone.value(),
                      piggy0 = piggy.value();
  Runtime rt(2);
  FaultSpec idle;
  idle.step = kEveryStep;
  idle.phase = FaultPhase::kAny;
  idle.rank = kEveryRank;
  idle.kind = FaultKind::kLinkDrop;
  idle.rate = 0.0;
  idle.times = kUnlimited;
  rt.set_fault_plan(FaultPlan().at(idle));
  rt.run([](Comm& c) {
    set_fault_context(1, FaultPhase::kPP);
    // Steady bidirectional traffic: nearly every ack should ride a
    // reverse-direction data frame instead of going out standalone.
    const int peer = 1 - c.rank();
    for (int m = 0; m < 200; ++m) {
      const std::vector<int> v{m};
      c.send(peer, 31, std::span<const int>(v));
      EXPECT_EQ(c.recv<int>(peer, 31).at(0), m);
    }
    set_fault_context(kNoFaultStep, FaultPhase::kAny);
  });
#if GREEM_TELEMETRY_ENABLED
  const std::uint64_t sent = frames.value() - frames0;
  EXPECT_GT(piggy.value() - piggy0, 0u) << "acks must piggyback on reverse data frames";
  EXPECT_LT(standalone.value() - standalone0, sent)
      << "coalescing must beat one standalone ack per frame";
#else
  (void)frames0;
  (void)standalone0;
  (void)piggy0;
#endif
}

TEST(Parx, RvalueAlltoallvMatchesLvalueAndEmptiesSource) {
  run_ranks(3, [](Comm& c) {
    const int p = c.size();
    std::vector<std::vector<int>> payload(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j)
      payload[static_cast<std::size_t>(j)] = {c.rank() * 10 + j, j};
    auto copy = payload;
    const auto ref = c.alltoallv(payload);      // lvalue: source intact
    const auto got = c.alltoallv(std::move(copy));  // rvalue: source consumed
    EXPECT_EQ(got, ref);
    EXPECT_EQ(payload.size(), static_cast<std::size_t>(p));
    for (const auto& v : copy) EXPECT_TRUE(v.empty()) << "moved-from slices are consumed";
  });
}

}  // namespace
}  // namespace greem::parx
