// Tests for the telemetry layer: registry name stability and first-use
// order, histogram percentiles, span nesting via Chrome-trace parse-back,
// the JsonWriter/RunMeta envelope, traffic-ledger epochs telescoping to
// the ledger totals, task-pool statistics, and the end-to-end StepRecord
// flop accounting of a small distributed run.
//
// Parse-back uses a deliberately minimal JSON reader defined below: the
// point is that the emitted artifacts are *valid JSON* a dumb reader
// accepts, not that a clever reader can rescue them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_sim.hpp"
#include "parx/runtime.hpp"
#include "parx/traffic.hpp"
#include "pp/kernels.hpp"
#include "telemetry/json.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/step_report.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"

namespace greem {
namespace {

// ------------------------------------------------- minimal JSON reader --

struct JVal {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  const JVal* find(std::string_view k) const {
    for (const auto& [key, v] : obj)
      if (key == k) return &v;
    return nullptr;
  }
};

class JParser {
 public:
  explicit JParser(std::string_view s) : s_(s) {}

  bool parse(JVal& out) {
    skip();
    if (!value(out)) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;

  void skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool lit(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }
  bool value(JVal& v) {
    skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(v);
    if (c == '[') return array(v);
    if (c == '"') {
      v.kind = JVal::kStr;
      return string(v.str);
    }
    if (lit("true")) {
      v.kind = JVal::kBool;
      v.b = true;
      return true;
    }
    if (lit("false")) {
      v.kind = JVal::kBool;
      v.b = false;
      return true;
    }
    if (lit("null")) {
      v.kind = JVal::kNull;
      return true;
    }
    return number(v);
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      switch (s_[pos_++]) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'u':
          if (pos_ + 4 > s_.size()) return false;
          pos_ += 4;           // don't decode; the tests never need it
          out.push_back('?');  // placeholder
          break;
        default: return false;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number(JVal& v) {
    const std::size_t start = pos_;
    auto isnum = [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-' ||
             c == '.' || c == 'e' || c == 'E';
    };
    while (pos_ < s_.size() && isnum(s_[pos_])) ++pos_;
    if (pos_ == start) return false;
    v.kind = JVal::kNum;
    v.num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }
  bool array(JVal& v) {
    v.kind = JVal::kArr;
    ++pos_;  // '['
    skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JVal item;
      if (!value(item)) return false;
      v.arr.push_back(std::move(item));
      skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(JVal& v) {
    v.kind = JVal::kObj;
    ++pos_;  // '{'
    skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip();
      std::string key;
      if (!string(key)) return false;
      skip();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JVal item;
      if (!value(item)) return false;
      v.obj.emplace_back(std::move(key), std::move(item));
      skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
};

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------- registry --

TEST(Registry, StableRefsAndFirstUseOrder) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  telemetry::Registry reg;
  telemetry::Counter& z = reg.counter("z/later-alphabetically");
  telemetry::Counter& a = reg.counter("a/earlier-alphabetically");
  z.add(3);
  a.add(1);
  // Re-lookup returns the same instrument (stable address).
  EXPECT_EQ(&z, &reg.counter("z/later-alphabetically"));
  EXPECT_EQ(&a, &reg.counter("a/earlier-alphabetically"));
  EXPECT_EQ(reg.counter("z/later-alphabetically").value(), 3u);

  // Report order is first-use order, not sorted.
  const auto snap = reg.counters();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "z/later-alphabetically");
  EXPECT_EQ(snap[1].first, "a/earlier-alphabetically");

  // reset() zeroes values but keeps names and addresses.
  reg.reset();
  EXPECT_EQ(reg.counters().size(), 2u);
  EXPECT_EQ(z.value(), 0u);
  EXPECT_EQ(&z, &reg.counter("z/later-alphabetically"));
}

TEST(Registry, GaugesAndHistogramsCoexistWithCounters) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  telemetry::Registry reg;
  reg.gauge("g").set(2.5);
  reg.histogram("h").record(1.0);
  reg.counter("g").add(7);  // same name, different kind: distinct instruments
  EXPECT_DOUBLE_EQ(reg.gauges()[0].second, 2.5);
  EXPECT_EQ(reg.counter("g").value(), 7u);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(Histogram, PercentilesWithinBinResolution) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  telemetry::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_TRUE(std::isinf(h.min()));

  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Log-spaced bins, 4 per octave: ~9% relative resolution.  Allow 12%.
  EXPECT_NEAR(h.percentile(50), 500.0, 60.0);
  EXPECT_NEAR(h.percentile(90), 900.0, 110.0);
  EXPECT_NEAR(h.percentile(100), 1000.0, 120.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isinf(h.min()));
}

TEST(Histogram, ConcurrentRecordsAllCounted) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  telemetry::Histogram h;
  constexpr int kThreads = 4, kPer = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h] {
      for (int i = 1; i <= kPer; ++i) h.record(1e-3 * i);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3 * kPer);
}

// -------------------------------------------------------- json writer --

TEST(JsonWriter, EscapesAndNestsParseBack) {
  std::ostringstream ss;
  telemetry::JsonWriter w(ss, /*pretty=*/false);
  w.begin_object();
  w.field("s", "a\"b\\c\nd\te");
  w.key("arr").begin_array();
  w.value(1);
  w.value(-2.5);
  w.value(true);
  w.value(std::uint64_t{18446744073709551615ull});
  w.end_array();
  w.key("empty").begin_object();
  w.end_object();
  w.end_object();

  JVal root;
  ASSERT_TRUE(JParser(ss.str()).parse(root)) << ss.str();
  ASSERT_NE(root.find("s"), nullptr);
  EXPECT_EQ(root.find("s")->str, "a\"b\\c\nd\te");
  ASSERT_NE(root.find("arr"), nullptr);
  ASSERT_EQ(root.find("arr")->arr.size(), 4u);
  EXPECT_DOUBLE_EQ(root.find("arr")->arr[0].num, 1.0);
  EXPECT_DOUBLE_EQ(root.find("arr")->arr[1].num, -2.5);
  EXPECT_TRUE(root.find("arr")->arr[2].b);
  EXPECT_EQ(root.find("empty")->kind, JVal::kObj);
}

TEST(JsonWriter, RunMetaEnvelope) {
  const auto meta = telemetry::RunMeta::collect("unit", "testkernel");
  EXPECT_EQ(meta.bench, "unit");
  EXPECT_EQ(meta.kernel, "testkernel");
  EXPECT_FALSE(meta.git_sha.empty());
  EXPECT_FALSE(meta.timestamp.empty());
  EXPECT_EQ(meta.telemetry, telemetry::enabled());

  std::ostringstream ss;
  telemetry::JsonWriter w(ss, /*pretty=*/true);
  w.begin_object();
  telemetry::write_meta(w, meta);
  w.end_object();
  JVal root;
  ASSERT_TRUE(JParser(ss.str()).parse(root)) << ss.str();
  const JVal* m = root.find("meta");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->find("bench")->str, "unit");
  EXPECT_EQ(m->find("kernel")->str, "testkernel");
}

// -------------------------------------------------------- json reader --

TEST(JsonReader, ParsesDocumentStrictly) {
  const auto doc = telemetry::parse_json(
      R"({"a": 1, "b": [true, null, "x\n\u0041"], "c": {"d": -2.5e3}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->u64_or("a", 0), 1u);
  const auto* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].as_string(), "x\nA");
  EXPECT_DOUBLE_EQ(doc->find("c")->number_or("d", 0), -2500.0);
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_FALSE(telemetry::parse_json("").has_value());
  EXPECT_FALSE(telemetry::parse_json("{").has_value());
  EXPECT_FALSE(telemetry::parse_json("{} extra").has_value());     // trailing garbage
  EXPECT_FALSE(telemetry::parse_json("{\"a\": 01}").has_value());  // bad number
  EXPECT_FALSE(telemetry::parse_json("{\"a\" 1}").has_value());
  EXPECT_FALSE(telemetry::parse_json("[1,]").has_value());
  EXPECT_FALSE(telemetry::parse_json("\"\\q\"").has_value());  // bad escape
  // Depth bomb: > 64 nested arrays.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(telemetry::parse_json(deep).has_value());
}

TEST(JsonReader, ExactDoubleRoundTripsThroughValueExact) {
  // value_exact (%.17g) + strtod must be a bitwise identity -- this is
  // what checkpoint manifests rely on for clocks and domain cuts.
  const double values[] = {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23, -2.5e-17,
                           0.004999999999999999};
  for (const double v : values) {
    std::ostringstream ss;
    telemetry::JsonWriter w(ss, /*pretty=*/false);
    w.begin_array();
    w.value_exact(v);
    w.end_array();
    const auto doc = telemetry::parse_json(ss.str());
    ASSERT_TRUE(doc.has_value()) << ss.str();
    const double got = doc->items()[0].as_double();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof(double)), 0) << ss.str();
  }
}

// ------------------------------------------------------------- spans --

TEST(Trace, SpanNestingParsesBackOnRankTrack) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  const char* path = "telemetry_test_trace.json";
  telemetry::clear_trace();
  const int prev = telemetry::set_trace_rank(42);
  {
    telemetry::Span outer("test/outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      telemetry::Span inner("test/inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  telemetry::set_trace_rank(prev);
  ASSERT_TRUE(telemetry::write_chrome_trace(path));

  JVal root;
  ASSERT_TRUE(JParser(read_file(path)).parse(root));
  const JVal* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JVal::kArr);

  const JVal* outer_ev = nullptr;
  const JVal* inner_ev = nullptr;
  bool track_named = false;
  for (const JVal& e : events->arr) {
    const JVal* name = e.find("name");
    const JVal* ph = e.find("ph");
    if (!name || !ph) continue;
    if (ph->str == "X" && name->str == "test/outer") outer_ev = &e;
    if (ph->str == "X" && name->str == "test/inner") inner_ev = &e;
    if (ph->str == "M" && name->str == "process_name" &&
        e.find("args")->find("name")->str == "rank 42")
      track_named = true;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  EXPECT_TRUE(track_named);
  EXPECT_DOUBLE_EQ(outer_ev->find("pid")->num, 42.0);
  EXPECT_DOUBLE_EQ(inner_ev->find("pid")->num, 42.0);

  // Strict nesting: inner starts after outer and ends before it (ts/dur in
  // microseconds; allow 1 us of rounding slack).
  const double ots = outer_ev->find("ts")->num, odur = outer_ev->find("dur")->num;
  const double its = inner_ev->find("ts")->num, idur = inner_ev->find("dur")->num;
  EXPECT_GE(its + 1.0, ots);
  EXPECT_LE(its + idur, ots + odur + 1.0);
  EXPECT_GE(odur, 3000.0 * 0.5);  // slept >= 3 ms total; timers can be coarse

  telemetry::clear_trace();
  std::remove(path);
}

// --------------------------------------------------- traffic epochs --

TEST(TrafficLedger, EpochsTelescopeToTotals) {
  parx::TrafficLedger ledger(4);
  const parx::TrafficCounts c0 = ledger.counts();

  auto e1 = ledger.begin_phase("a");
  ledger.record(0, 1, 100);
  ledger.record(1, 2, 50);
  const parx::TrafficCounts d1 = e1.delta();
  EXPECT_EQ(e1.name(), "a");
  EXPECT_EQ(d1.totals().messages, 2u);
  EXPECT_EQ(d1.totals().bytes, 150u);

  auto e2 = ledger.begin_phase("b");
  ledger.record(2, 3, 10);
  ledger.record(3, 0, 5);
  ledger.record(3, 0, 5);
  const parx::TrafficCounts d2 = e2.delta();
  EXPECT_EQ(d2.totals().messages, 3u);
  EXPECT_EQ(d2.totals().bytes, 20u);

  // Consecutive epoch deltas sum exactly to the ledger's own change; no
  // message is lost or double-counted at the boundary.
  parx::TrafficCounts sum = d1;
  sum += d2;
  const parx::TrafficCounts all = ledger.counts() - c0;
  EXPECT_EQ(sum.totals().messages, all.totals().messages);
  EXPECT_EQ(sum.totals().bytes, all.totals().bytes);
  EXPECT_EQ(sum.totals().max_in_bytes, all.totals().max_in_bytes);

  // Epochs never mutate the ledger: totals() sees everything ever sent.
  EXPECT_EQ(ledger.totals().messages, 5u);
}

TEST(TrafficLedger, BarrieredEpochsAttributePhasesExactly) {
  constexpr int kRanks = 4;
  parx::Runtime rt(kRanks);
  std::uint64_t phase1_msgs = 0, phase2_msgs = 0, total_msgs = 0;
  rt.run([&](parx::Comm& world) {
    const auto p = static_cast<std::size_t>(world.size());
    auto payload = [&](std::size_t ints) {
      std::vector<std::vector<int>> send(p);
      for (std::size_t r = 0; r < p; ++r) send[r].assign(ints, world.rank());
      return send;
    };
    std::optional<parx::TrafficLedger::Epoch> epoch;
    world.barrier();
    if (world.rank() == 0) epoch.emplace(world.ledger().begin_phase("one"));
    world.barrier();
    world.alltoallv(payload(1));
    world.barrier();
    if (world.rank() == 0) {
      phase1_msgs = epoch->totals().messages;
      epoch.emplace(world.ledger().begin_phase("two"));
    }
    world.barrier();
    world.alltoallv(payload(2));
    world.alltoallv(payload(2));
    world.barrier();
    if (world.rank() == 0) {
      phase2_msgs = epoch->totals().messages;
      total_msgs = world.ledger().totals().messages;
    }
  });
  // alltoallv: every rank messages every other rank once -> p*(p-1).
  EXPECT_EQ(phase1_msgs, static_cast<std::uint64_t>(kRanks) * (kRanks - 1));
  EXPECT_EQ(phase2_msgs, 2u * kRanks * (kRanks - 1));
  EXPECT_EQ(phase1_msgs + phase2_msgs, total_msgs);
}

// ----------------------------------------------------- pool statistics --

TEST(PoolStats, CountsLoopsChunksAndBusyTime) {
  TaskPool pool(4);
  std::atomic<std::size_t> n{0};
  pool.for_dynamic(0, 1000, 10, [&](std::size_t lo, std::size_t hi, unsigned) {
    n += hi - lo;
  });
  EXPECT_EQ(n.load(), 1000u);

  const TaskPool::PoolStats s = pool.stats();
  EXPECT_EQ(s.loops, 1u);
  EXPECT_EQ(s.chunks, 100u);  // 1000 items / grain 10
  ASSERT_EQ(s.busy_s.size(), 4u);
  EXPECT_GT(s.busy_max(), 0.0);
  EXPECT_GE(s.imbalance(), 1.0);
  EXPECT_GT(s.elapsed_s, 0.0);

  pool.reset_stats();
  const TaskPool::PoolStats z = pool.stats();
  EXPECT_EQ(z.loops, 0u);
  EXPECT_EQ(z.chunks, 0u);
  EXPECT_EQ(z.steals, 0u);
}

TEST(PoolStats, ImbalancedLoadProducesSteals) {
  TaskPool pool(4);
  // Front-loaded work: the first quarter of the chunks carry all the cost,
  // so three participants' blocks drain instantly and they must steal.
  std::atomic<std::uint64_t> sink{0};
  pool.for_dynamic(0, 64, 1, [&](std::size_t lo, std::size_t, unsigned) {
    if (lo < 16) {
      std::uint64_t h = lo + 1;
      for (int i = 0; i < 2000000; ++i) h = h * 1315423911u + i;
      sink += h;
    }
  });
  const TaskPool::PoolStats s = pool.stats();
  EXPECT_EQ(s.chunks, 64u);
  EXPECT_GT(s.steals, 0u);
}

// ------------------------------------------------- end-to-end StepRecord --

TEST(StepReport, FlopTotalsMatchInteractionCounts) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  const char* path = "telemetry_test_steps.jsonl";
  std::remove(path);

  core::ParallelSimConfig cfg;
  cfg.dims = {2, 1, 1};
  cfg.pm.n_mesh = 16;
  cfg.theta = 0.5;
  cfg.ncrit = 32;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 2000;
  cfg.step_report_path = path;

  constexpr std::size_t kN = 600;
  auto particles = core::random_uniform_particles(kN, 1.0, 99);

  std::atomic<std::uint64_t> rank_interactions{0}, rank_pairs{0}, rank_nodes{0},
      rank_groups{0};
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(0.001);
    sim.step(0.002);
    rank_interactions += sim.last_step().pp_stats.interactions;
    rank_pairs += sim.last_step().pp_stats.pairs_evaluated;
    rank_nodes += sim.last_step().pp_stats.nodes_visited;
    rank_groups += sim.last_step().pp_stats.ngroups;
    // last_record() is filled collectively; every rank sees the aggregate.
    EXPECT_EQ(sim.last_record().step, 2u);
    EXPECT_EQ(sim.last_record().n_particles, kN);
  });

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::vector<JVal> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JVal r;
    ASSERT_TRUE(JParser(line).parse(r)) << line;
    records.push_back(std::move(r));
  }
  ASSERT_EQ(records.size(), 2u);  // one JSON line per step

  const JVal& last = records.back();
  EXPECT_DOUBLE_EQ(last.find("step")->num, 2.0);
  EXPECT_DOUBLE_EQ(last.find("ranks")->num, 2.0);
  EXPECT_DOUBLE_EQ(last.find("n_particles")->num, static_cast<double>(kN));

  // Flop accounting: flops == global interactions * 51 (the paper's
  // per-interaction count), and interactions match the ranks' own sum.
  const double interactions = last.find("interactions")->num;
  EXPECT_DOUBLE_EQ(interactions, static_cast<double>(rank_interactions.load()));
  EXPECT_DOUBLE_EQ(last.find("flops")->num, interactions * pp::kFlopsPerInteraction);
  // The kernel's evaluated pairs: the ranks' sum, never more than the list
  // pairs (the flop accounting stays on the list pairs).
  ASSERT_NE(last.find("pairs_evaluated"), nullptr);
  EXPECT_DOUBLE_EQ(last.find("pairs_evaluated")->num, static_cast<double>(rank_pairs.load()));
  EXPECT_GT(rank_pairs.load(), 0u);
  EXPECT_LE(rank_pairs.load(), rank_interactions.load());
  const double pp_max = last.find("pp_seconds_max")->num;
  ASSERT_GT(pp_max, 0.0);
  EXPECT_NEAR(last.find("flop_rate")->num,
              interactions * pp::kFlopsPerInteraction / pp_max,
              1e-6 * last.find("flop_rate")->num);

  // Walk work: the global node count is the ranks' own sum, and the rate
  // divides it by the summed traversal seconds.
  EXPECT_DOUBLE_EQ(last.find("nodes_visited")->num, static_cast<double>(rank_nodes.load()));
  EXPECT_GT(rank_nodes.load(), 0u);
  EXPECT_GT(last.find("walk_mnodes_s")->num, 0.0);

  // Tree construction rate over the step's two PP cycles (each builds one
  // tree per rank over its locals and ghosts).
  ASSERT_NE(last.find("tree_build_mpart_s"), nullptr);
  const double build_rate = last.find("tree_build_mpart_s")->num;
  EXPECT_TRUE(std::isfinite(build_rate));
  EXPECT_GT(build_rate, 0.0);

  // The Table I group block: the ranks' group count, <Ni> and <Nj>.
  ASSERT_NE(last.find("groups"), nullptr);
  EXPECT_DOUBLE_EQ(last.find("groups")->num, static_cast<double>(rank_groups.load()));
  EXPECT_GE(last.find("mean_ni")->num, 1.0);
  EXPECT_GT(last.find("mean_nj")->num, 0.0);
  ASSERT_NE(last.find("work_imbalance"), nullptr);
  EXPECT_GE(last.find("work_imbalance")->num, 1.0);

  // Phase breakdowns carry the Table I row names with a consistent total.
  const JVal* pp = last.find("pp");
  ASSERT_NE(pp, nullptr);
  for (const char* row : {"local tree", "communication", "tree construction",
                          "tree traversal", "force calculation"})
    EXPECT_NE(pp->find(row), nullptr) << row;
  EXPECT_GT(last.find("pm")->find("FFT")->num, 0.0);

  // Traffic buckets exist and saw messages (2 ranks exchange ghosts).
  const JVal* traffic = last.find("traffic");
  ASSERT_NE(traffic, nullptr);
  for (const char* phase : {"dd", "pp", "pm"}) {
    const JVal* ph = traffic->find(phase);
    ASSERT_NE(ph, nullptr) << phase;
    EXPECT_GT(ph->find("messages")->num, 0.0) << phase;
  }

  std::remove(path);
}

TEST(StepReport, PairsEvaluatedEqualInteractionsUnderTheScalarKernel) {
  // Only the avx512 Phantom kernel culls list pairs past the cutoff: under
  // the scalar kernel every list pair is evaluated, and under the dispatched
  // Phantom kernel the count is positive and at most the list pairs.
  core::ParallelSimConfig cfg;
  cfg.dims = {2, 1, 1};
  cfg.pm.n_mesh = 16;
  cfg.theta = 0.5;
  cfg.ncrit = 32;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 2000;
  auto particles = core::random_uniform_particles(600, 1.0, 99);
  for (const tree::KernelKind kernel : {tree::KernelKind::kScalar, tree::KernelKind::kPhantom}) {
    cfg.kernel = kernel;
    parx::run_ranks(2, [&](parx::Comm& world) {
      std::vector<core::Particle> local =
          world.rank() == 0 ? particles : std::vector<core::Particle>{};
      core::ParallelSimulation sim(world, cfg, std::move(local), 0.0);
      sim.step(0.001);
      const tree::TraversalStats& st = sim.last_step().pp_stats;
      EXPECT_GT(st.pairs_evaluated, 0u);
      if (kernel == tree::KernelKind::kScalar)
        EXPECT_EQ(st.pairs_evaluated, st.interactions);
      else
        EXPECT_LE(st.pairs_evaluated, st.interactions);
    });
  }
}

TEST(StepReport, PpGroupsCoverEveryInteractionOfASingleCycleStep) {
  // pp_groups summarises the last PP cycle over groups that own a target;
  // with one cycle per step it accounts for the record's interactions.
  if (!telemetry::enabled()) GTEST_SKIP() << "built with GREEM_TELEMETRY=OFF";
  const char* path = "telemetry_test_pp_groups.jsonl";
  std::remove(path);

  core::ParallelSimConfig cfg;
  cfg.dims = {2, 2, 1};
  cfg.nsub = 1;
  cfg.pm.n_mesh = 16;
  cfg.theta = 0.5;
  cfg.ncrit = 16;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 2000;
  cfg.step_report_path = path;

  auto particles = core::random_uniform_particles(800, 1.0, 7);
  std::atomic<std::uint64_t> groups{0}, sum_ni{0}, sum_nj{0};
  telemetry::StepRecord rank0;
  parx::run_ranks(4, [&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    sim.step(0.001);
    const auto& rec = sim.last_record();
    ASSERT_EQ(rec.pp_groups.size(), 4u);
    std::uint64_t sum = 0, max_rank = 0, rank_groups = 0;
    for (const auto& g : rec.pp_groups) {
      EXPECT_GT(g.groups, 0u);
      EXPECT_GE(g.interactions, g.groups);
      sum += g.interactions;
      max_rank = std::max(max_rank, g.interactions);
      rank_groups += g.groups;
    }
    EXPECT_EQ(sum, rec.interactions);
    EXPECT_EQ(rank_groups, rec.groups);
    // work_imbalance is max/mean of the same per-rank interactions.
    EXPECT_DOUBLE_EQ(rec.work_imbalance,
                     static_cast<double>(max_rank) * 4.0 / static_cast<double>(sum));
    EXPECT_GE(rec.work_imbalance, 1.0);
    const tree::TraversalStats& st = sim.last_step().pp_stats;
    groups += st.ngroups;
    sum_ni += st.sum_ni;
    sum_nj += st.sum_nj;
    if (world.rank() == 0) rank0 = rec;
  });
  // The Table I block is the ranks' traversal stats of the one cycle:
  // every local is a target of exactly one group, so <Ni> = N / groups.
  EXPECT_EQ(rank0.groups, groups.load());
  EXPECT_EQ(sum_ni.load(), 800u);
  EXPECT_DOUBLE_EQ(rank0.mean_ni, 800.0 / static_cast<double>(groups.load()));
  EXPECT_DOUBLE_EQ(rank0.mean_nj,
                   static_cast<double>(sum_nj.load()) / static_cast<double>(groups.load()));
  EXPECT_GE(rank0.mean_ni, 1.0);
  EXPECT_LE(rank0.mean_ni, static_cast<double>(cfg.ncrit));
  std::remove(path);
}

}  // namespace
}  // namespace greem
