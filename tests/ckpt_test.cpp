// Checkpoint/restart subsystem tests: CRC and atomic-file primitives,
// manifest round trips, bitwise restore determinism of the distributed
// simulation (including a pending mid-step PM half-kick), corruption
// rejection, retention pruning, and the injected-fault rollback-recovery
// loop end to end.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>

#include "ckpt/atomic_file.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/journal.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "core/parallel_sim.hpp"
#include "parx/fault.hpp"
#include "parx/runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace greem::ckpt {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------- job journal --

TEST(Journal, AppendReadRoundTripAndMissingFileIsNoJournal) {
  const std::string path = testing::TempDir() + "/journal_roundtrip.log";
  fs::remove(path);
  EXPECT_FALSE(read_journal(path).has_value());  // missing != empty
  {
    JournalWriter w(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.append(1, "{\"event\":\"a\"}"));
    ASSERT_TRUE(w.append(2, "{\"event\":\"b\"}"));
    ASSERT_TRUE(w.append(0, ""));  // empty payloads are legal
    EXPECT_EQ(w.appends(), 3u);
  }
  const auto rr = read_journal(path);
  ASSERT_TRUE(rr.has_value());
  EXPECT_FALSE(rr->truncated);
  EXPECT_TRUE(rr->corrupt_tags.empty());
  ASSERT_EQ(rr->records.size(), 3u);
  EXPECT_EQ(rr->records[0].tag, 1u);
  EXPECT_EQ(rr->records[0].payload, "{\"event\":\"a\"}");
  EXPECT_EQ(rr->records[1].tag, 2u);
  EXPECT_EQ(rr->records[2].payload, "");
}

TEST(Journal, CompactionReplacesHistoryWithOneSnapshotRecord) {
  const std::string path = testing::TempDir() + "/journal_compact.log";
  fs::remove(path);
  JournalWriter w(path);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.append(7, "x"));
  ASSERT_TRUE(w.compact(0, "{\"event\":\"snapshot\"}"));
  EXPECT_EQ(w.appends(), 1u);  // the snapshot counts as the first append
  ASSERT_TRUE(w.append(8, "y"));  // the reopened fd keeps appending
  const auto rr = read_journal(path);
  ASSERT_TRUE(rr.has_value());
  ASSERT_EQ(rr->records.size(), 2u);
  EXPECT_EQ(rr->records[0].payload, "{\"event\":\"snapshot\"}");
  EXPECT_EQ(rr->records[1].tag, 8u);
}

TEST(Journal, TruncatedTailIsIgnoredNotFatal) {
  const std::string path = testing::TempDir() + "/journal_trunc.log";
  fs::remove(path);
  {
    JournalWriter w(path);
    ASSERT_TRUE(w.append(1, "survives"));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::string partial = encode_journal_record(2, "lost to the crash");
    out.write(partial.data(), static_cast<std::streamsize>(partial.size() / 2));
  }
  const auto rr = read_journal(path);
  ASSERT_TRUE(rr.has_value());
  EXPECT_TRUE(rr->truncated);
  EXPECT_GT(rr->bytes_dropped, 0u);
  ASSERT_EQ(rr->records.size(), 1u);
  EXPECT_EQ(rr->records[0].payload, "survives");
}

TEST(Journal, CrcMismatchSkipsRecordAndReportsTag) {
  const std::string path = testing::TempDir() + "/journal_crc.log";
  fs::remove(path);
  const std::string rec1 = encode_journal_record(1, "first");
  {
    JournalWriter w(path);
    ASSERT_TRUE(w.append(1, "first"));
    ASSERT_TRUE(w.append(42, "second"));
    ASSERT_TRUE(w.append(3, "third"));
  }
  {
    // Corrupt one payload byte of record 42: framing stays intact, so the
    // scan skips it, attributes it, and keeps going.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(rec1.size() + 20));
    f.put('!');
  }
  const auto rr = read_journal(path);
  ASSERT_TRUE(rr.has_value());
  EXPECT_FALSE(rr->truncated);
  ASSERT_EQ(rr->corrupt_tags.size(), 1u);
  EXPECT_EQ(rr->corrupt_tags[0], 42u);
  ASSERT_EQ(rr->records.size(), 2u);
  EXPECT_EQ(rr->records[0].payload, "first");
  EXPECT_EQ(rr->records[1].payload, "third");
}

TEST(Journal, GarbageLengthFailsFramingInsteadOfSwallowingTheFile) {
  const std::string path = testing::TempDir() + "/journal_len.log";
  fs::remove(path);
  {
    JournalWriter w(path);
    ASSERT_TRUE(w.append(1, "ok"));
  }
  {
    // A header whose length field is garbage (> kJournalMaxRecord): the
    // reader must stop at the framing boundary, not trust the length.
    std::string bad;
    const std::uint32_t magic = kJournalMagic, len = 0xffffffffu, crc = 0;
    const std::uint64_t tag = 9;
    bad.append(reinterpret_cast<const char*>(&magic), 4);
    bad.append(reinterpret_cast<const char*>(&len), 4);
    bad.append(reinterpret_cast<const char*>(&tag), 8);
    bad.append(reinterpret_cast<const char*>(&crc), 4);
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  const auto rr = read_journal(path);
  ASSERT_TRUE(rr.has_value());
  EXPECT_TRUE(rr->truncated);
  ASSERT_EQ(rr->records.size(), 1u);
}

TEST(Journal, FailedAppendRetiresWriterInsteadOfPoisoningTheLog) {
  // /dev/full accepts the open but fails every write with ENOSPC, and as
  // a device it cannot be ftruncate'd back -- the rewind is impossible,
  // so the writer must retire its fd.  The invariant under test: after a
  // failed append the writer NEVER keeps appending past partial bytes
  // (which would leave every later good record behind an unframeable
  // tail the reader drops).
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full not available";
  JournalWriter w("/dev/full");
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.append(1, "{\"event\":\"doomed\"}"));
  EXPECT_FALSE(w.ok());  // retired: rewind impossible on a device
  EXPECT_FALSE(w.append(2, "{\"event\":\"after\"}"));
  EXPECT_EQ(w.appends(), 0u);
}

// ----------------------------------------------------------- atomic file --

TEST(AtomicFile, CommitPublishesExactlyOnce) {
  const std::string path = testing::TempDir() + "/atomic_commit.txt";
  fs::remove(path);
  {
    AtomicFileWriter w(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.write("hello", 5));
    EXPECT_FALSE(fs::exists(path)) << "must not appear before commit";
    ASSERT_TRUE(w.commit());
  }
  ASSERT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::ifstream in(path);
  std::string got;
  std::getline(in, got);
  EXPECT_EQ(got, "hello");
}

TEST(AtomicFile, AbortLeavesNothing) {
  const std::string path = testing::TempDir() + "/atomic_abort.txt";
  fs::remove(path);
  {
    AtomicFileWriter w(path);
    w.write("partial", 7);
    // No commit: the destructor aborts.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicFile, CommitPreservesPreviousOnOpenFailure) {
  const std::string path = "/nonexistent-dir-xyz/file.txt";
  AtomicFileWriter w(path);
  EXPECT_FALSE(w.ok());
  EXPECT_FALSE(w.write("x", 1));
  EXPECT_FALSE(w.commit());
}

// --------------------------------------------------------------- manifest --

Manifest sample_manifest() {
  Manifest m;
  m.state.step = 4;
  m.state.substep = 9;
  m.state.clock = 0.1 + 0.2;  // a value that %.9g would round
  m.state.pending_long_kick = 1.0 / 3.0;
  m.state.config_fingerprint = 0xDEADBEEFCAFE1234ull;
  m.state.dims = {2, 2, 1};
  m.state.decomp_flat = {0.0, 0.5000000001, 1.0, 0.0, 1.0 / 3.0, 1.0};
  m.state.smoother_history = {{0.1, 0.2}, {0.3, 0.4}};
  for (int r = 0; r < 4; ++r)
    m.shards.push_back({r, "shard_0000" + std::to_string(r) + ".bin",
                        static_cast<std::uint64_t>(100 + r), 9600,
                        0xABCD0000u + r});
  return m;
}

TEST(Manifest, RoundTripsBitwise) {
  const Manifest m = sample_manifest();
  const auto parsed = parse_manifest(manifest_to_json(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->state.step, m.state.step);
  EXPECT_EQ(parsed->state.substep, m.state.substep);
  // Bitwise, not approximate: restored state must be exact.
  EXPECT_EQ(std::memcmp(&parsed->state.clock, &m.state.clock, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&parsed->state.pending_long_kick, &m.state.pending_long_kick,
                        sizeof(double)),
            0);
  EXPECT_EQ(parsed->state.config_fingerprint, m.state.config_fingerprint);
  EXPECT_EQ(parsed->state.dims, m.state.dims);
  ASSERT_EQ(parsed->state.decomp_flat.size(), m.state.decomp_flat.size());
  for (std::size_t i = 0; i < m.state.decomp_flat.size(); ++i)
    EXPECT_EQ(std::memcmp(&parsed->state.decomp_flat[i], &m.state.decomp_flat[i],
                          sizeof(double)),
              0);
  EXPECT_EQ(parsed->state.smoother_history, m.state.smoother_history);
  ASSERT_EQ(parsed->shards.size(), m.shards.size());
  EXPECT_EQ(parsed->shards[3].crc32, m.shards[3].crc32);
  EXPECT_EQ(parsed->shards[3].n_items, m.shards[3].n_items);
}

TEST(Manifest, RejectsGarbageAndInconsistency) {
  EXPECT_FALSE(parse_manifest("").has_value());
  EXPECT_FALSE(parse_manifest("not json").has_value());
  EXPECT_FALSE(parse_manifest("{}").has_value());
  EXPECT_FALSE(parse_manifest(R"({"format":"other","version":1})").has_value());

  const Manifest m = sample_manifest();
  // Valid JSON with trailing garbage is rejected by the strict parser.
  EXPECT_FALSE(parse_manifest(manifest_to_json(m) + "trailing").has_value());

  // dims product disagreeing with the shard count is rejected.
  Manifest bad = m;
  bad.state.dims = {3, 1, 1};
  EXPECT_FALSE(parse_manifest(manifest_to_json(bad)).has_value());

  // A future version is rejected (no silent misinterpretation).
  std::string json = manifest_to_json(m);
  const auto at = json.find("\"version\": 1");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 12, "\"version\": 9");
  EXPECT_FALSE(parse_manifest(json).has_value());
}

// ------------------------------------------------- distributed round trip --

using core::ParallelSimConfig;
using core::ParallelSimulation;
using core::Particle;

ParallelSimConfig deterministic_config(std::array<int, 3> dims) {
  ParallelSimConfig cfg;
  cfg.dims = dims;
  cfg.pm.n_mesh = 16;
  cfg.theta = 0.3;
  cfg.ncrit = 32;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 2000;
  return cfg;
}

std::vector<Particle> test_particles(std::size_t n, std::uint64_t seed) {
  auto ps = core::random_uniform_particles(n, 1.0, seed);
  Rng rng(seed + 1);
  for (auto& p : ps) p.mom = {rng.normal() * 0.2, rng.normal() * 0.2, rng.normal() * 0.2};
  return ps;
}

/// Collect all particles sorted by id (collective helper; returns the full
/// set on every rank via the caller's mutex-protected vector on rank 0).
std::vector<Particle> sorted_locals(std::vector<std::vector<Particle>>& per_rank) {
  std::vector<Particle> all;
  for (auto& v : per_rank) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return all;
}

void expect_bitwise_equal(const std::vector<Particle>& a, const std::vector<Particle>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(Particle)), 0)
        << "particle " << a[i].id << " differs bitwise";
  }
}

struct RunResult {
  std::vector<Particle> particles;
  double clock = 0;
};

/// Run `total_steps` on `nranks` ranks; when `ckpt_dir` is non-null, write
/// a checkpoint after `ckpt_at` steps.  When `restore` is non-null, start
/// from that checkpoint (dir or parent) instead of `initial`.
RunResult run_sim(std::array<int, 3> dims, const std::vector<Particle>& initial,
                  int total_steps, double dt, const std::string* ckpt_dir = nullptr,
                  int ckpt_at = 0, const std::string* restore = nullptr) {
  const int p = dims[0] * dims[1] * dims[2];
  std::mutex mu;
  std::vector<std::vector<Particle>> per_rank(static_cast<std::size_t>(p));
  double clock = 0;
  parx::run_ranks(p, [&](parx::Comm& world) {
    std::vector<Particle> local =
        world.rank() == 0 ? initial : std::vector<Particle>{};
    auto cfg = deterministic_config(dims);
    if (restore) cfg.restore_from = *restore;
    ParallelSimulation sim(world, cfg, std::move(local), 0.0);
    for (std::uint64_t s = sim.step_index() + 1; s <= static_cast<std::uint64_t>(total_steps);
         ++s) {
      sim.step(static_cast<double>(s) * dt);
      if (ckpt_dir && s == static_cast<std::uint64_t>(ckpt_at))
        sim.checkpoint(*ckpt_dir, /*keep_last=*/0);
    }
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    per_rank[static_cast<std::size_t>(world.rank())].assign(loc.begin(), loc.end());
    clock = sim.clock();
  });
  return {sorted_locals(per_rank), clock};
}

TEST(CkptRoundTrip, RestoreIsBitwiseDeterministic) {
  const std::string dir = testing::TempDir() + "/ckpt_bitwise";
  fs::remove_all(dir);
  const auto initial = test_particles(600, 42);
  const double dt = 0.004;

  // Uninterrupted 4-step run.
  const auto full = run_sim({2, 2, 1}, initial, 4, dt);

  // 2 steps + checkpoint; at that point the sim owes the next step a PM
  // half-kick (mid-KDK), which the manifest must carry.
  const auto half = run_sim({2, 2, 1}, initial, 2, dt, &dir, 2);
  const auto latest = find_latest(dir);
  ASSERT_TRUE(latest.has_value());
  const auto manifest = read_manifest(*latest);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->state.step, 2u);
  EXPECT_NE(manifest->state.pending_long_kick, 0.0)
      << "checkpoint must capture the pending long-range half-kick";
  EXPECT_FALSE(manifest->state.smoother_history.empty());

  // Restore + remaining 2 steps: bitwise-identical to the full run.
  const auto resumed = run_sim({2, 2, 1}, initial, 4, dt, nullptr, 0, &dir);
  EXPECT_EQ(resumed.clock, full.clock);
  expect_bitwise_equal(resumed.particles, full.particles);
}

TEST(CkptRoundTrip, RestoreAcceptsExplicitCheckpointDir) {
  const std::string dir = testing::TempDir() + "/ckpt_explicit";
  fs::remove_all(dir);
  const auto initial = test_particles(300, 7);
  const double dt = 0.004;
  const auto full = run_sim({2, 1, 1}, initial, 3, dt);
  run_sim({2, 1, 1}, initial, 2, dt, &dir, 2);
  const auto latest = find_latest(dir);
  ASSERT_TRUE(latest.has_value());
  // Pass the checkpoint directory itself, not the parent.
  const auto resumed = run_sim({2, 1, 1}, initial, 3, dt, nullptr, 0, &*latest);
  expect_bitwise_equal(resumed.particles, full.particles);
}

TEST(Ckpt, CorruptShardFailsLoudlyOnEveryRank) {
  const std::string dir = testing::TempDir() + "/ckpt_corrupt";
  fs::remove_all(dir);
  const auto initial = test_particles(300, 11);
  run_sim({2, 1, 1}, initial, 2, 0.004, &dir, 2);
  const auto latest = find_latest(dir);
  ASSERT_TRUE(latest.has_value());

  // Flip one payload byte in rank 1's shard.
  const std::string shard = *latest + "/shard_00001.bin";
  {
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) - 5);
    char b;
    f.seekg(static_cast<std::streamoff>(size) - 5);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size) - 5);
    f.write(&b, 1);
  }

  parx::run_ranks(2, [&](parx::Comm& world) {
    // The CRC mismatch is detected by rank 1 but thrown on every rank
    // (collective agreement), so no rank proceeds with stale state.
    EXPECT_THROW(read_checkpoint(world, *latest), CkptError);
  });
}

TEST(Ckpt, ShardLayoutIsVersion2AndVersion1IsRefused) {
  const std::string dir = testing::TempDir() + "/ckpt_shard_version";
  fs::remove_all(dir);
  run_sim({2, 1, 1}, test_particles(300, 23), 1, 0.004, &dir, 1);
  const auto latest = find_latest(dir);
  ASSERT_TRUE(latest.has_value());
  const auto manifest = read_manifest(*latest);
  ASSERT_TRUE(manifest.has_value());

  // Version 2: 8-byte magic, then a 32-byte header {u32 version, u32 rank,
  // u64 n_items, u64 payload_bytes, u32 crc32, u32 reserved}, then the
  // payload, whose CRC32 the manifest records.
  const std::string shard = *latest + "/shard_00001.bin";
  std::string bytes;
  {
    std::ifstream f(shard, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kMagic = 8, kHeader = 32;
  ASSERT_GT(bytes.size(), kMagic + kHeader);
  EXPECT_EQ(bytes.compare(0, kMagic, "GREEMCK1"), 0);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kMagic, sizeof version);
  EXPECT_EQ(version, 2u);
  const std::string payload = bytes.substr(kMagic + kHeader);
  EXPECT_EQ(payload.size(), manifest->shards[1].bytes);
  EXPECT_EQ(util::crc32(payload.data(), payload.size()), manifest->shards[1].crc32);

  // Rewrite the shard as version 1 wrote it: the same header with
  // version 1, followed by an 8-byte per-rank cost, then the payload.
  {
    std::string v1 = bytes.substr(0, kMagic + kHeader);
    const std::uint32_t one = 1;
    std::memcpy(v1.data() + kMagic, &one, sizeof one);
    const double cost = 12.5;
    v1.append(reinterpret_cast<const char*>(&cost), sizeof cost);
    v1 += payload;
    std::ofstream f(shard, std::ios::binary | std::ios::trunc);
    f.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }
  parx::run_ranks(2, [&](parx::Comm& world) {
    EXPECT_THROW(read_checkpoint(world, *latest), CkptError);
  });
}

TEST(Ckpt, UncommittedCheckpointIsInvisible) {
  const std::string dir = testing::TempDir() + "/ckpt_uncommitted";
  fs::remove_all(dir);
  const auto initial = test_particles(300, 13);
  run_sim({2, 1, 1}, initial, 1, 0.004, &dir, 1);
  run_sim({2, 1, 1}, initial, 2, 0.004, &dir, 2);
  auto committed = list_committed(dir);
  ASSERT_EQ(committed.size(), 2u);

  // Simulate a crash between shard commit and manifest commit: the newest
  // checkpoint loses its manifest and must vanish from the committed set.
  fs::remove(fs::path(committed[1]) / kManifestName);
  committed = list_committed(dir);
  ASSERT_EQ(committed.size(), 1u);
  const auto latest = find_latest(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, committed[0]);

  // A corrupt (truncated) manifest is equally invisible.
  {
    std::ofstream f(fs::path(committed[0]) / kManifestName, std::ios::trunc);
    f << "{\"format\": \"greem-ckpt\", \"version\": 1";
  }
  EXPECT_FALSE(find_latest(dir).has_value());
}

TEST(Ckpt, RetentionKeepsOnlyNewest) {
  const std::string dir = testing::TempDir() + "/ckpt_retention";
  fs::remove_all(dir);
  const auto initial = test_particles(200, 17);
  parx::run_ranks(2, [&](parx::Comm& world) {
    std::vector<Particle> local =
        world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, deterministic_config({2, 1, 1}), std::move(local), 0.0);
    for (int s = 1; s <= 3; ++s) {
      sim.step(s * 0.004);
      sim.checkpoint(dir, /*keep_last=*/2);
    }
  });
  const auto committed = list_committed(dir);
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_NE(committed[0].find("ckpt_00000002"), std::string::npos);
  EXPECT_NE(committed[1].find("ckpt_00000003"), std::string::npos);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "ckpt_00000001"));
}

TEST(Ckpt, FingerprintMismatchRejected) {
  const std::string dir = testing::TempDir() + "/ckpt_fingerprint";
  fs::remove_all(dir);
  const auto initial = test_particles(200, 19);
  run_sim({2, 1, 1}, initial, 1, 0.004, &dir, 1);
  parx::run_ranks(2, [&](parx::Comm& world) {
    auto cfg = deterministic_config({2, 1, 1});
    cfg.theta = 0.7;  // different physics: must not silently resume
    cfg.restore_from = dir;
    std::vector<Particle> local =
        world.rank() == 0 ? initial : std::vector<Particle>{};
    EXPECT_THROW(ParallelSimulation(world, cfg, std::move(local), 0.0), CkptError);
  });
}

TEST(ConfigFingerprint, SensitiveToDynamicsInsensitiveToReporting) {
  const auto base = deterministic_config({2, 2, 1});
  const auto h0 = core::config_fingerprint(base);

  auto changed = base;
  changed.theta = 0.31;
  EXPECT_NE(core::config_fingerprint(changed), h0);
  changed = base;
  changed.sampling.seed += 1;
  EXPECT_NE(core::config_fingerprint(changed), h0);
  changed = base;
  changed.pm.n_mesh = 32;
  EXPECT_NE(core::config_fingerprint(changed), h0);

  // Reporting and restore paths are not physics.
  changed = base;
  changed.step_report_path = "/tmp/report.jsonl";
  changed.restore_from = "/tmp/ckpts";
  changed.pool_threads = 3;
  EXPECT_EQ(core::config_fingerprint(changed), h0);
}

// --------------------------------------------------- fault injection e2e --

TEST(Recovery, InjectedRankAbortRollsBackAndMatchesBitwise) {
  const std::string dir = testing::TempDir() + "/ckpt_recovery";
  fs::remove_all(dir);
  const auto initial = test_particles(400, 23);
  const double dt = 0.004;
  const int nsteps = 4;
  const auto schedule = [dt](std::uint64_t i) { return static_cast<double>(i + 1) * dt; };

  // Reference: uninterrupted run.
  const auto full = run_sim({2, 2, 1}, initial, nsteps, dt);

  const auto injected_before =
      telemetry::Registry::global().counter("faults/injected").value();

  // Faulted run: rank 2 aborts in the PP phase of step 3, once.
  parx::Runtime rt(4);
  rt.set_fault_plan(parx::FaultPlan().at(
      {.step = 3, .phase = parx::FaultPhase::kPP, .kind = parx::FaultKind::kRankAbort,
       .rank = 2, .times = 1}));

  std::mutex mu;
  std::vector<std::vector<Particle>> per_rank(4);
  RecoveryStats stats0;
  rt.run([&](parx::Comm& world) {
    std::vector<Particle> local =
        world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, deterministic_config({2, 2, 1}), std::move(local), 0.0);
    RecoveryOptions opts;
    opts.dir = dir;
    opts.checkpoint_every = 1;
    opts.keep_last = 2;
    opts.max_attempts = 3;
    const auto stats = run_with_recovery(sim, nsteps, schedule, opts);
    sim.synchronize();
    std::lock_guard lock(mu);
    const auto loc = sim.local();
    per_rank[static_cast<std::size_t>(world.rank())].assign(loc.begin(), loc.end());
    if (world.rank() == 0) stats0 = stats;
  });

  EXPECT_EQ(stats0.failures, 1u);
  EXPECT_EQ(stats0.restores, 1u);
  EXPECT_GE(stats0.checkpoints, static_cast<std::uint64_t>(nsteps));
  if (telemetry::enabled()) {
    EXPECT_EQ(telemetry::Registry::global().counter("faults/injected").value(),
              injected_before + 1);
    EXPECT_GE(telemetry::Registry::global().counter("ckpt/restores").value(), 1u);
  }

  // The recovered run ends in exactly the state of the uninterrupted one.
  const auto recovered = sorted_locals(per_rank);
  expect_bitwise_equal(recovered, full.particles);
}

TEST(Recovery, NoCheckpointToRollBackToThrows) {
  const std::string dir = testing::TempDir() + "/ckpt_norollback";
  fs::remove_all(dir);
  const auto initial = test_particles(200, 29);
  const auto schedule = [](std::uint64_t i) { return static_cast<double>(i + 1) * 0.004; };

  parx::Runtime rt(2);
  rt.set_fault_plan(parx::FaultPlan().at(
      {.step = 1, .phase = parx::FaultPhase::kPP, .kind = parx::FaultKind::kRankAbort,
       .rank = 1, .times = 1}));
  rt.run([&](parx::Comm& world) {
    std::vector<Particle> local =
        world.rank() == 0 ? initial : std::vector<Particle>{};
    ParallelSimulation sim(world, deterministic_config({2, 1, 1}), std::move(local), 0.0);
    RecoveryOptions opts;
    opts.dir = dir;
    opts.checkpoint_every = 2;  // fault at step 1 precedes any checkpoint
    EXPECT_THROW(run_with_recovery(sim, 2, schedule, opts), CkptError);
  });
}

}  // namespace
}  // namespace greem::ckpt
