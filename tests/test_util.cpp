// Tests for src/util: RNG determinism and statistics, the NPB LCG, running
// stats, table printing, PGM output, and striped snapshot I/O.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "telemetry/counters.hpp"
#include "util/pgm.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hotlib {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro, UniformRange) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformMeanAndVariance) {
  Xoshiro256ss rng(1234);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 5e-3);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 5e-3);
}

TEST(Xoshiro, NormalMoments) {
  Xoshiro256ss rng(99);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 1e-2);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-2);
}

TEST(Xoshiro, InSphereStaysInside) {
  Xoshiro256ss rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(norm(rng.in_sphere(2.5)), 2.5 + 1e-12);
  }
}

TEST(NpbLcg, MatchesWideMultiplication) {
  // mulmod46 must agree with a 128-bit reference.
  NpbLcg gen(314159265ULL);
  std::uint64_t x = 314159265ULL;
  for (int i = 0; i < 1000; ++i) {
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(x) * NpbLcg::kDefaultA;
    x = static_cast<std::uint64_t>(wide & NpbLcg::kModMask);
    gen.next();
    ASSERT_EQ(gen.raw(), x) << "diverged at step " << i;
  }
}

TEST(NpbLcg, SkipMatchesSequentialAdvance) {
  NpbLcg a(314159265ULL), b(314159265ULL);
  for (int i = 0; i < 12345; ++i) a.next();
  b.skip(12345);
  EXPECT_EQ(a.raw(), b.raw());
}

TEST(NpbLcg, ValuesInUnitInterval) {
  NpbLcg g;
  for (int i = 0; i < 1000; ++i) {
    const double v = g.next();
    ASSERT_GT(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.rms(), std::sqrt(30.0 / 4.0), 1e-12);
}

TEST(RunningStats, MergeEqualsCombined) {
  Xoshiro256ss rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(InteractionTally, FlopAccounting) {
  InteractionTally t;
  t.body_body = 100;
  t.body_cell = 50;
  EXPECT_EQ(t.interactions(), 150u);
  EXPECT_DOUBLE_EQ(t.flops(), 150.0 * 38);
  InteractionTally u = t + t;
  EXPECT_EQ(u.interactions(), 300u);
}

TEST(TextTable, FormatsAligned) {
  TextTable t({"Item", "Qty"});
  t.add_row({"CPU", "16"});
  t.add_row({"Switch", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| CPU"), std::string::npos);
  EXPECT_NE(s.find("| Switch"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsWideRow) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Checksum, DetectsCorruption) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t c0 = checksum64(data);
  data[500] ^= 1;
  EXPECT_NE(c0, checksum64(data));
}

class SnapshotTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SnapshotTest, RoundTripAcrossStripes) {
  const std::uint32_t stripes = GetParam();
  const std::string base =
      (std::filesystem::temp_directory_path() / ("hotlib_snap_" + std::to_string(stripes)))
          .string();

  std::vector<double> values(10000);
  Xoshiro256ss rng(stripes);
  for (auto& v : values) v = rng.normal();
  const auto payload = pack_doubles(values);

  SnapshotHeader h;
  h.particle_count = values.size() / 3;
  h.step = 437;
  h.time = 13.5;
  SnapshotWriter writer(base, stripes, /*stripe_block=*/4096);
  ASSERT_TRUE(writer.write(h, payload));

  SnapshotHeader h2;
  std::vector<std::uint8_t> back;
  SnapshotReader reader(base);
  ASSERT_TRUE(reader.read(h2, back));
  EXPECT_EQ(h2.step, 437u);
  EXPECT_DOUBLE_EQ(h2.time, 13.5);
  EXPECT_EQ(unpack_doubles(back), values);
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, SnapshotTest, ::testing::Values(1u, 2u, 7u, 16u));

TEST(Snapshot, DetectsTamperedStripe) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "hotlib_snap_tamper").string();
  std::vector<double> values(512, 1.25);
  SnapshotWriter writer(base, 4, 256);
  ASSERT_TRUE(writer.write(SnapshotHeader{}, pack_doubles(values)));
  {
    // Flip one byte in stripe 2.
    std::FILE* f = std::fopen((base + ".s2").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 10, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 10, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  SnapshotHeader h;
  std::vector<std::uint8_t> back;
  EXPECT_FALSE(SnapshotReader(base).read(h, back));
}

TEST(Snapshot, CorruptPayloadSizeFailsWithoutThrowing) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "hotlib_snap_size").string();
  std::vector<double> values(512, 1.25);
  ASSERT_TRUE(SnapshotWriter(base, 4, 256).write(SnapshotHeader{}, pack_doubles(values)));
  {
    // A manifest claiming 2^62 payload bytes must not size the allocation.
    std::FILE* f = std::fopen((base + ".manifest").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::uint64_t huge = std::uint64_t{1} << 62;
    std::fseek(f, offsetof(SnapshotHeader, payload_bytes), SEEK_SET);
    std::fwrite(&huge, sizeof huge, 1, f);
    std::fclose(f);
  }
  SnapshotHeader h;
  std::vector<std::uint8_t> back;
  bool ok = true;
  EXPECT_NO_THROW(ok = SnapshotReader(base).read(h, back));
  EXPECT_FALSE(ok);
}

TEST(Snapshot, ZeroBodySnapshotRoundTrips) {
  // An empty payload: nothing to copy, every stripe file empty.
  const std::string base =
      (std::filesystem::temp_directory_path() / "hotlib_snap_empty").string();
  const std::vector<std::uint8_t> payload = pack_doubles({});
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(SnapshotWriter(base, 4).write(SnapshotHeader{}, payload));
  SnapshotHeader h;
  std::vector<std::uint8_t> back{1, 2, 3};
  ASSERT_TRUE(SnapshotReader(base).read(h, back));
  EXPECT_EQ(h.particle_count, 0u);
  EXPECT_EQ(h.payload_bytes, 0u);
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(unpack_doubles(back).empty());
}

TEST(Pgm, WritesValidHeaderAndScales) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hotlib_test.pgm").string();
  PgmImage img(32, 16);
  img.deposit(3, 4, 10.0);
  img.deposit(3, 4, 5.0);
  EXPECT_DOUBLE_EQ(img.at(3, 4), 15.0);
  ASSERT_TRUE(img.write_log(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  std::fclose(f);
  EXPECT_EQ(magic[0], 'P');
  EXPECT_EQ(magic[1], '5');
}

TEST(Pgm, OutOfBoundsDepositIgnored) {
  PgmImage img(4, 4);
  img.deposit(100, 100, 1.0);  // must not crash or corrupt
  EXPECT_DOUBLE_EQ(img.at(0, 0), 0.0);
}

}  // namespace
}  // namespace hotlib
