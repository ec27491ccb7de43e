// Flight-recorder and live-endpoint tests: ring wraparound stays bounded
// for marks and spans alike, concurrent writers and dumpers are race-free
// (this test is in the tsan label set), a lossy-link soak leaves matched
// send/recv flow pairs and retransmit evidence from multiple ranks in the
// dump, the zero-copy fast path stamps flows too, and the live endpoint
// speaks its line protocol over a real socket.  Everything content-related
// is skipped when the tree is built with GREEM_TELEMETRY=OFF -- the API
// must still compile and be callable as no-ops, which this file checks by
// existing.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parx/comm.hpp"
#include "parx/fault.hpp"
#include "parx/runtime.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/live_endpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace greem::telemetry {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

/// Flow ids of the "s" (begin) or "f" (end) halves of the Perfetto flow
/// pairs in a dump, keyed off the exact key order write_chrome_trace
/// writes.
std::set<long long> flow_ids(const std::string& json, bool begin) {
  const std::string marker =
      begin ? std::string("\"ph\":\"s\",\"id\":") : std::string("\"bp\":\"e\",\"id\":");
  std::set<long long> ids;
  for (std::size_t pos = json.find(marker); pos != std::string::npos;
       pos = json.find(marker, pos + marker.size()))
    ids.insert(std::atoll(json.c_str() + pos + marker.size()));
  return ids;
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* stem)
      : path(std::string(::testing::TempDir()) + stem) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(FlightRecorder, WraparoundStaysBounded) {
  if (!enabled()) GTEST_SKIP() << "telemetry off";
  // Marks and spans share the ring: the trace keeps only the newest
  // kFlightRingCapacity events of this thread whichever kind filled it.
  static const char kMark[] = "test/wraparound_mark";
  static const char kSpan[] = "test/wraparound_span";
  const struct {
    const char* name;
    void (*record)(std::size_t);
  } inputs[] = {
      {kMark, [](std::size_t i) { flight_record_mark(kMark, static_cast<std::int64_t>(i)); }},
      {kSpan, [](std::size_t) { Span span(kSpan); }},
  };
  for (const auto& in : inputs) {
    SCOPED_TRACE(in.name);
    clear_trace();
    const std::uint64_t before = flight_event_count();
    const std::size_t writes = kFlightRingCapacity + 1000;
    for (std::size_t i = 0; i < writes; ++i) in.record(i);
    EXPECT_GE(flight_event_count() - before, writes);

    TempFile f("flight_wrap.json");
    ASSERT_TRUE(write_chrome_trace(f.path));
    const std::string json = slurp(f.path);
    // Every surviving slot is ours, and none beyond capacity.
    EXPECT_EQ(count_occurrences(json, in.name), kFlightRingCapacity);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  }
}

TEST(FlightRecorder, DisarmedRecordsNothing) {
  if (!enabled()) GTEST_SKIP() << "telemetry off";
  set_flight_recorder_enabled(false);
  const std::uint64_t before = flight_event_count();
  flight_record_mark("test/disarmed");
  flight_record_frame(FrameEventKind::kSend, 0, 1, 1, 8, 42);
  EXPECT_EQ(flight_event_count(), before);
  set_flight_recorder_enabled(true);
  flight_record_mark("test/rearmed");
  EXPECT_EQ(flight_event_count(), before + 1);
}

// The tsan workhorse: several threads hammer the recorder while another
// repeatedly snapshots it.  The seqlock makes torn slots dropped events,
// never racing reads.
TEST(FlightRecorder, ConcurrentWritersAndDumps) {
  if (!enabled()) GTEST_SKIP() << "telemetry off";
  constexpr int kWriters = 4;
  constexpr int kEvents = 20000;
  TempFile f("flight_concurrent.json");
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      static const char kName[] = "test/concurrent_mark";
      for (int i = 0; i < kEvents; ++i) {
        if (i & 1)
          flight_record_mark(kName, w, i);
        else
          flight_record_frame(FrameEventKind::kSend, w, (w + 1) % kWriters,
                              static_cast<std::uint64_t>(i), 64, next_flow_id());
      }
    });
  }
  std::thread dumper([&] {
    while (!done.load(std::memory_order_acquire))
      (void)write_chrome_trace(f.path);
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  dumper.join();

  ASSERT_TRUE(write_chrome_trace(f.path));
  const std::string json = slurp(f.path);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(count_occurrences(json, "test/concurrent_mark"), 0u);
}

/// `rounds` alltoallv rounds on a fresh 4-rank runtime under `plan`.
void run_alltoallv_rounds(int rounds, const parx::FaultPlan& plan) {
  parx::Runtime rt(4);
  if (!plan.empty()) rt.set_fault_plan(plan);
  rt.run([&](parx::Comm& world) {
    const int p = world.size();
    for (int r = 0; r < rounds; ++r) {
      parx::set_fault_context(static_cast<std::uint64_t>(r) + 1, parx::FaultPhase::kPP);
      std::vector<std::vector<double>> payload(static_cast<std::size_t>(p));
      for (int j = 0; j < p; ++j)
        if (j != world.rank())
          payload[static_cast<std::size_t>(j)].assign(32, world.rank() + 0.25 * j);
      (void)world.alltoallv(std::move(payload));
    }
    parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  });
}

TEST(FlightRecorder, LossySoakCapturesFrameEventsAcrossRanks) {
  if (!enabled()) GTEST_SKIP() << "telemetry off";
  clear_trace();
  parx::FaultSpec drop;
  drop.step = parx::kEveryStep;
  drop.rank = parx::kEveryRank;
  drop.kind = parx::FaultKind::kLinkDrop;
  drop.rate = 0.25;
  drop.times = parx::kUnlimited;
  run_alltoallv_rounds(100, parx::FaultPlan().at(drop));

  TempFile f("flight_lossy.json");
  ASSERT_TRUE(write_chrome_trace(f.path));
  const std::string json = slurp(f.path);

  // Frame events from the framed transport, including retransmissions of
  // the dropped frames, on at least two rank tracks.
  EXPECT_GT(count_occurrences(json, "\"name\":\"parx/send\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"parx/recv\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"parx/retransmit\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"parx/drop\""), 0u);
  EXPECT_GE(count_occurrences(json, "\"name\":\"rank "), 2u);

  // Causal pairing: some send flow ids must be matched by recv flow ids.
  const auto sends = flow_ids(json, /*begin=*/true);
  const auto recvs = flow_ids(json, /*begin=*/false);
  ASSERT_FALSE(sends.empty());
  ASSERT_FALSE(recvs.empty());
  std::size_t matched = 0;
  for (const long long id : recvs) matched += sends.count(id);
  EXPECT_GT(matched, 0u);
}

TEST(FlightRecorder, FastPathStampsFlowsToo) {
  if (!enabled()) GTEST_SKIP() << "telemetry off";
  clear_trace();
  run_alltoallv_rounds(20, parx::FaultPlan());  // no plan: zero-copy path

  TempFile f("flight_fastpath.json");
  ASSERT_TRUE(write_chrome_trace(f.path));
  const std::string json = slurp(f.path);
  EXPECT_GT(count_occurrences(json, "\"name\":\"parx/send\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"parx/recv\""), 0u);
  const auto sends = flow_ids(json, /*begin=*/true);
  const auto recvs = flow_ids(json, /*begin=*/false);
  std::size_t matched = 0;
  for (const long long id : recvs) matched += sends.count(id);
  EXPECT_GT(matched, 0u);
}

// --- live endpoint ---------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;  // EOF or timeout: whatever arrived
}

TEST(LiveEndpoint, HelloPublishAndMetricsRoundTrip) {
  LiveEndpoint ep;
  ASSERT_TRUE(ep.start(0));  // ephemeral port
  ASSERT_GT(ep.port(), 0);
  ASSERT_TRUE(ep.running());

  const int fd = connect_loopback(ep.port());
  ASSERT_GE(fd, 0);
  // Greeting: the hello line, then one metrics snapshot.
  const std::string hello = read_line(fd);
  EXPECT_NE(hello.find("\"type\":\"hello\""), std::string::npos) << hello;
  const std::string metrics = read_line(fd);
  EXPECT_NE(metrics.find("\"type\":\"metrics\""), std::string::npos) << metrics;

  // Broadcast path (what parallel_sim publishes per step).
  // publish() only sees clients the serve loop has accepted; the hello
  // above proves acceptance already happened.
  const std::uint64_t published0 = ep.published();
  ep.publish("{\"type\":\"step\",\"step\":7}");
  EXPECT_EQ(read_line(fd), "{\"type\":\"step\",\"step\":7}");
  EXPECT_GT(ep.published(), published0);

  // Command path: "metrics" requests a fresh snapshot.
  ASSERT_EQ(::send(fd, "metrics\n", 8, 0), 8);
  const std::string again = read_line(fd);
  EXPECT_NE(again.find("\"type\":\"metrics\""), std::string::npos) << again;

  ::close(fd);
  ep.stop();
  EXPECT_FALSE(ep.running());
  // Stopped endpoint: publish is a no-op, restart works.
  ep.publish("{\"ignored\":true}");
  ASSERT_TRUE(ep.start(0));
  ep.stop();
}

// Regression (tsan-visible): wake() used to read the wake-pipe fd with no
// synchronization against stop() closing it, so a publisher thread could
// pass the running() check and write into a closed -- or kernel-reused --
// descriptor.  Both sides now go through mu_; hammer the window.
TEST(LiveEndpoint, ConcurrentPublishDuringStopIsSafe) {
  LiveEndpoint ep;
  for (int round = 0; round < 25; ++round) {
    ASSERT_TRUE(ep.start(0));
    std::atomic<bool> go{false};
    std::thread pub([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 200; ++i) ep.publish("{\"type\":\"x\"}");
    });
    go.store(true, std::memory_order_release);
    ep.stop();
    pub.join();
  }
}

TEST(LiveEndpoint, PublishEventFormatsTypeAndDetail) {
  LiveEndpoint ep;
  ASSERT_TRUE(ep.start(0));
  const int fd = connect_loopback(ep.port());
  ASSERT_GE(fd, 0);
  (void)read_line(fd);  // hello
  (void)read_line(fd);  // metrics snapshot
  ep.publish_event("watchdog", "rank 3 blocked");
  const std::string line = read_line(fd);
  EXPECT_NE(line.find("\"type\":\"watchdog\""), std::string::npos) << line;
  EXPECT_NE(line.find("rank 3 blocked"), std::string::npos) << line;
  ::close(fd);
  ep.stop();
}

}  // namespace
}  // namespace greem::telemetry
