// Snapshot and CSV I/O tests.

#include <gtest/gtest.h>

#include <fstream>

#include "core/particle.hpp"
#include "analysis/fof.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/snapshot.hpp"

namespace greem::io {
namespace {

TEST(Snapshot, RoundtripsParticles) {
  const auto ps = core::random_uniform_particles(123, 1.0, 1);
  SnapshotHeader h;
  h.clock = 0.25;
  h.particle_mass = 1.0 / 123.0;
  h.comoving = 1;
  const std::string path = testing::TempDir() + "/snap.bin";
  ASSERT_TRUE(write_snapshot(path, h, ps));

  const auto snap = read_snapshot(path);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->header.n_particles, 123u);
  EXPECT_DOUBLE_EQ(snap->header.clock, 0.25);
  EXPECT_EQ(snap->header.comoving, 1u);
  ASSERT_EQ(snap->particles.size(), 123u);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(snap->particles[i].pos, ps[i].pos);
    EXPECT_EQ(snap->particles[i].id, ps[i].id);
    EXPECT_DOUBLE_EQ(snap->particles[i].mass, ps[i].mass);
  }
}

TEST(Snapshot, RejectsMissingFile) {
  EXPECT_FALSE(read_snapshot("/nonexistent/path/snap.bin").has_value());
}

TEST(Snapshot, RejectsCorruptMagic) {
  const std::string path = testing::TempDir() + "/bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTASNAPSHOTFILE____________";
  }
  EXPECT_FALSE(read_snapshot(path).has_value());
}

TEST(Snapshot, RejectsTruncatedFile) {
  const auto ps = core::random_uniform_particles(50, 1.0, 2);
  const std::string path = testing::TempDir() + "/trunc.bin";
  ASSERT_TRUE(write_snapshot(path, {}, ps));
  // Truncate to half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)), {});
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_FALSE(read_snapshot(path).has_value());
}

TEST(Snapshot, RejectsTrailingGarbage) {
  const auto ps = core::random_uniform_particles(20, 1.0, 3);
  const std::string path = testing::TempDir() + "/trailing.bin";
  ASSERT_TRUE(write_snapshot(path, {}, ps));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "EXTRA BYTES";
  }
  EXPECT_FALSE(read_snapshot(path).has_value());
}

TEST(Snapshot, RejectsHugeClaimedCountWithoutAllocating) {
  // A header claiming ~2^61 particles on a tiny file must be rejected by
  // the size bound, not by attempting a petabyte resize.
  const std::string path = testing::TempDir() + "/huge.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("GREEMSN1", 8);
    SnapshotHeader h{};
    h.n_particles = ~std::uint64_t{0} / sizeof(core::Particle);
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out << "tiny";
  }
  EXPECT_FALSE(read_snapshot(path).has_value());
}

TEST(Snapshot, WriteLeavesNoTempFile) {
  const auto ps = core::random_uniform_particles(10, 1.0, 4);
  const std::string path = testing::TempDir() + "/atomic_snap.bin";
  ASSERT_TRUE(write_snapshot(path, {}, ps));
  EXPECT_TRUE(read_snapshot(path).has_value());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/out.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row({1.0, 2.5});
    csv.row({3.0, 4.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}


TEST(HaloCatalog, WritesRowsPerGroup) {
  // Two clumps -> two catalog rows with correct masses and centers.
  std::vector<Vec3> pos;
  for (int i = 0; i < 40; ++i) pos.push_back({0.2 + 1e-4 * i, 0.3, 0.3});
  for (int i = 0; i < 60; ++i) pos.push_back({0.7 + 1e-4 * i, 0.8, 0.8});
  const auto groups = analysis::fof_groups(pos, 0.01, 10);
  ASSERT_EQ(groups.ngroups(), 2u);

  const std::string path = testing::TempDir() + "/halos.csv";
  ASSERT_TRUE(write_halo_catalog(path, groups, pos, 0.01));

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "halo_id,n_members,mass,com_x,com_y,com_z");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 5), "0,60,");  // largest first
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 5), "1,40,");
  EXPECT_FALSE(std::getline(in, line) && !line.empty());
}


TEST(Config, ParsesKeysCommentsAndOverrides) {
  const auto cfg = Config::parse_string(R"(
# a comment
n  = 32          # trailing comment
name = hello world
flag = yes
ratio = 2.5
n = 64           # later key wins
)");
  EXPECT_EQ(cfg.get_int("n", 0), 64);
  EXPECT_EQ(cfg.get_string("name", ""), "hello world");
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(cfg.get_int("missing", -7), -7);
  EXPECT_TRUE(cfg.has("flag"));
  EXPECT_FALSE(cfg.has("nope"));
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_THROW(Config::parse_string("just a token\n"), std::invalid_argument);
  EXPECT_THROW(Config::parse_string("= value\n"), std::invalid_argument);
  const auto cfg = Config::parse_string("b = maybe\n");
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, TypedGettersRejectHostileValues) {
  // Each value here once reached greem_run: "abc" and "maybe" aborted it
  // with an uncaught exception, "16abc" was read as 16.
  const auto cfg = Config::parse_string(R"(
n_per_dim = abc
trailing = 16abc
fof = maybe
huge = 99999999999999999999999
ratio = 2.5x
big = 1e999
nan = nan
inf = -inf
empty =
neg = -1
)");
  EXPECT_THROW(cfg.get_int("n_per_dim", 16), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("trailing", 16), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("fof", true), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("huge", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("ratio", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("big", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("nan", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("inf", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("empty", 0), std::invalid_argument);
  // Syntactically valid: range checks are the caller's (greem_run rejects
  // n_per_dim = -1; it once hung in next_pow2).
  EXPECT_EQ(cfg.get_int("neg", 0), -1);
  EXPECT_DOUBLE_EQ(cfg.get_double("neg", 0), -1.0);
  try {
    cfg.get_int("trailing", 16);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos) << e.what();
  }
}

TEST(Config, UnknownKeysDetectsTypos) {
  const auto cfg = Config::parse_string("n_mesh = 8\nn_meshh = 9\n");
  const auto unknown = cfg.unknown_keys({"n_mesh"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "n_meshh");
}

TEST(Config, FileRoundtrip) {
  const std::string path = testing::TempDir() + "/run.cfg";
  {
    std::ofstream out(path);
    out << "alpha = 1.25\n";
  }
  std::string error;
  const auto cfg = Config::parse_file(path, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_DOUBLE_EQ(cfg->get_double("alpha", 0), 1.25);
  EXPECT_FALSE(Config::parse_file("/no/such/file.cfg", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace greem::io
