// Checkpoint wall: bit-exact chunk round-trips (doubles travel as IEEE bit
// patterns, so -0.0, denormals, infinities and NaN all survive), and the
// strict-rejection contract — a corrupted, truncated, duplicated or
// foreign-fingerprint checkpoint must never resume, while a newline-less
// partial tail (the kill-mid-append signature) is dropped with a notice.
#include "src/service/checkpoint.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>

namespace wsync {
namespace {

/// A PointResult with every kCountFields row set to a distinct nonzero
/// value, distinct Summary rows, and awkward doubles in the summaries. It
/// is plausible, as aggregate_point would produce it: the synced-only
/// summaries count synced_runs, the rest count runs.
PointResult fancy_result() {
  PointResult r;
  r.runs = 12;
  r.synced_runs = 11;
  r.timeout_runs = 1;
  r.agreement_violations = 2;
  r.commit_violations = 3;
  r.correctness_violations = 4;
  r.max_leaders = 5;
  r.multi_leader_runs = 6;
  r.energy_budget_violations = 7;
  r.broadcast_rounds = 700;
  r.listen_rounds = 800;
  r.sleep_rounds = 900;
  r.offset_violations = 13;
  r.resync_count = 14;
  r.rounds_simulated = 1500;
  r.deliveries = 1600;
  r.collisions = 1700;
  r.absences = 1800;
  r.knockouts = 1900;
  r.wake_events_popped = 2000;
  r.fast_forwarded_rounds = 2100;
  r.max_broadcast_weight = 1.0 / 3.0;
  r.rounds_to_live = {11, 1.5, 0.25, -0.0, 1e300, 2.5, 3.5, 4.5};
  r.max_node_latency = {11, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::denorm_min(),
                        -std::numeric_limits<double>::infinity(), 0.1, 0.2,
                        0.3};
  r.max_awake_rounds = {12, 5.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0};
  r.mean_awake_rounds = {12, 4.5, 0.5, 4.0, 5.0, 4.5, 5.0, 5.0};
  r.awake_fraction = {12, 0.25, 0.0, 0.25, 0.25, 0.25, 0.25, 0.25};
  r.max_offset = {12, 2.5, 0.5, 1.0, 4.0, 2.0, 3.0, 4.0};
  return r;
}

/// encode_chunk_line("fancy_scenario", 17, fancy_result()) in the v3
/// layout, captured from the encoder before the decoder began checking
/// summary counts: reordering or miswiring a table row changes these
/// bytes.
constexpr char kFancyV3Line[] =
    "chunk fancy_scenario 17 12 11 1 2 3 4 5 6 7 700 800 900 13 14 "
    "1500 1600 1700 1800 1900 2000 2100 3fd5555555555555 11 "
    "3ff8000000000000 3fd0000000000000 8000000000000000 "
    "7e37e43c8800759c 4004000000000000 400c000000000000 "
    "4012000000000000 11 7ff0000000000000 7ff8000000000000 "
    "0000000000000001 fff0000000000000 3fb999999999999a "
    "3fc999999999999a 3fd3333333333333 12 4014000000000000 "
    "0000000000000000 4014000000000000 4014000000000000 "
    "4014000000000000 4014000000000000 4014000000000000 12 "
    "4012000000000000 3fe0000000000000 4010000000000000 "
    "4014000000000000 4012000000000000 4014000000000000 "
    "4014000000000000 12 3fd0000000000000 0000000000000000 "
    "3fd0000000000000 3fd0000000000000 3fd0000000000000 "
    "3fd0000000000000 3fd0000000000000 12 4004000000000000 "
    "3fe0000000000000 3ff0000000000000 4010000000000000 "
    "4000000000000000 4008000000000000 4010000000000000 "
    "#d517b41e1fb99ee9";

/// `payload` (a chunk line without its checksum) with a valid checksum
/// appended: what a hostile or buggy writer could produce.
std::string rechecksummed(const std::string& payload) {
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), " #%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return payload + checksum;
}

/// The fancy chunk line with whitespace token `index` (0 is "chunk")
/// replaced by `value`, re-checksummed.
std::string fancy_line_with(size_t index, const std::string& value) {
  const std::string line = encode_chunk_line("fancy_scenario", 17,
                                             fancy_result());
  std::istringstream in(line.substr(0, line.rfind(" #")));
  std::string payload;
  std::string token;
  for (size_t i = 0; in >> token; ++i) {
    payload += (i == 0 ? "" : " ") + (i == index ? value : token);
  }
  return rechecksummed(payload);
}

// Token positions in a chunk line: "chunk", scenario, point index, the
// kCountFields rows, max_broadcast_weight, then 8 tokens per Summary row
// (count first).
constexpr size_t kFirstCountToken = 3;
constexpr size_t kFirstSummaryToken =
    kFirstCountToken + kCountFields.size() + 1;

void expect_bit_identical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  const double av[] = {a.mean, a.stddev, a.min, a.max, a.p50, a.p90, a.p99};
  const double bv[] = {b.mean, b.stddev, b.min, b.max, b.p50, b.p90, b.p99};
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(av[i]), std::bit_cast<uint64_t>(bv[i]));
  }
}

TEST(CheckpointCodec, ChunkLineRoundTripsBitExactly) {
  const PointResult original = fancy_result();
  std::set<int64_t> distinct;
  for (const CountField& field : kCountFields) {
    EXPECT_NE(original.*field.member, 0);
    distinct.insert(original.*field.member);
  }
  ASSERT_EQ(distinct.size(), kCountFields.size());
  const std::string line = encode_chunk_line("fancy_scenario", 17, original);
  EXPECT_EQ(line, kFancyV3Line);

  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  ASSERT_EQ(decode_chunk_line(line, &scenario, &point_index, &decoded), "");
  EXPECT_EQ(scenario, "fancy_scenario");
  EXPECT_EQ(point_index, 17u);
  for (size_t i = 0; i < kCountFields.size(); ++i) {
    const auto member = kCountFields[i].member;
    EXPECT_EQ(decoded.*member, original.*member) << "count row " << i;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded.max_broadcast_weight),
            std::bit_cast<uint64_t>(original.max_broadcast_weight));
  for (size_t i = 0; i < kSummaryFields.size(); ++i) {
    SCOPED_TRACE("summary row " + std::to_string(i));
    const auto member = kSummaryFields[i].member;
    expect_bit_identical(decoded.*member, original.*member);
  }
}

TEST(CheckpointCodec, ImplausibleCountsAreRejectedEvenWithValidChecksum) {
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  // Sanity: the unmodified line decodes, so each rejection below is due to
  // the one edited token.
  ASSERT_EQ(decode_chunk_line(fancy_line_with(0, "chunk"), &scenario,
                              &point_index, &decoded),
            "");
  for (size_t i = 0; i < kCountFields.size(); ++i) {
    EXPECT_EQ(decode_chunk_line(fancy_line_with(kFirstCountToken + i, "-5"),
                                &scenario, &point_index, &decoded),
              "implausible chunk counts")
        << "count row " << i;
  }
  for (size_t i = 0; i < kSummaryFields.size(); ++i) {
    EXPECT_EQ(decode_chunk_line(fancy_line_with(kFirstSummaryToken + 8 * i,
                                                "-1"),
                                &scenario, &point_index, &decoded),
              "implausible chunk counts")
        << "summary row " << i;
  }
  // A summary must count exactly the runs it summarizes: synced_runs (11)
  // for the synced-only rows, runs (12) for the rest; the other run count
  // is rejected too.
  for (size_t i = 0; i < kSummaryFields.size(); ++i) {
    const char* other = kSummaryFields[i].synced_only ? "12" : "11";
    for (const char* value : {"3", other}) {
      EXPECT_EQ(decode_chunk_line(fancy_line_with(kFirstSummaryToken + 8 * i,
                                                  value),
                                  &scenario, &point_index, &decoded),
                "implausible chunk counts")
          << "summary row " << i << " = " << value;
    }
  }
  // runs must equal synced_runs + timeout_runs (12 = 11 + 1 in the fancy
  // result); each of the three edited alone breaks the identity, also at
  // INT64_MAX, where a naive sum would overflow.
  for (const char* value : {"40", "9223372036854775807"}) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(decode_chunk_line(fancy_line_with(kFirstCountToken + i, value),
                                  &scenario, &point_index, &decoded),
                "implausible chunk counts")
          << "count row " << i << " = " << value;
    }
  }
}

TEST(CheckpointCodec, FlippedByteFailsTheChecksum) {
  std::string line = encode_chunk_line("s", 0, fancy_result());
  const size_t digit = line.find(" 12 ") + 1;  // runs field
  line[digit] = '9';
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  EXPECT_EQ(decode_chunk_line(line, &scenario, &point_index, &decoded),
            "checksum mismatch");
}

TEST(CheckpointCodec, MissingAndMalformedChecksumsAreDistinctErrors) {
  const std::string line = encode_chunk_line("s", 0, fancy_result());
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  EXPECT_EQ(decode_chunk_line("chunk s 0 1 2 3", &scenario, &point_index,
                              &decoded),
            "missing checksum");
  const std::string bad = line.substr(0, line.size() - 16) + "nothexnothexnoth";
  EXPECT_EQ(decode_chunk_line(bad, &scenario, &point_index, &decoded),
            "malformed checksum");
}

TEST(CheckpointCodec, TruncatedFieldsAreRejectedEvenWithValidChecksum) {
  // Re-checksum a field-truncated payload: the checksum passes, the field
  // parse must still fail.
  const std::string line = encode_chunk_line("s", 3, fancy_result());
  const size_t marker = line.rfind(" #");
  std::string payload = line.substr(0, marker);
  payload = payload.substr(0, payload.rfind(' '));  // drop the last field
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  EXPECT_EQ(decode_chunk_line(rechecksummed(payload), &scenario,
                              &point_index, &decoded),
            "malformed chunk fields");
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  // Under `ctest -j` each case is its own concurrent process; the file
  // name carries the case name so cases never race on a shared path.
  std::string path_ = ::testing::TempDir() + "checkpoint_test_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".txt";

  void write_file(const std::string& content) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }
};

TEST_F(CheckpointFileTest, WriterOutputLoadsBack) {
  constexpr uint64_t kFingerprint = 0x1234abcd5678ef00;
  {
    CheckpointWriter writer(path_, kFingerprint, /*resume=*/false);
    ASSERT_TRUE(writer.ok());
    writer.append("alpha", 0, fancy_result());
    writer.append("alpha", 1, fancy_result());
    writer.append("beta", 0, fancy_result());
  }
  const CheckpointLoad load = load_checkpoint(path_, kFingerprint);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_FALSE(load.dropped_partial_tail);
  EXPECT_EQ(load.chunks.size(), 3u);
  EXPECT_EQ(load.chunks.count({"alpha", 1}), 1u);
  EXPECT_EQ(load.chunks.at({"beta", 0}).runs, 12);

  // Resume mode appends below the validated content instead of truncating.
  {
    CheckpointWriter writer(path_, kFingerprint, /*resume=*/true);
    writer.append("beta", 1, fancy_result());
  }
  const CheckpointLoad more = load_checkpoint(path_, kFingerprint);
  ASSERT_TRUE(more.ok()) << more.error;
  EXPECT_EQ(more.chunks.size(), 4u);
}

TEST_F(CheckpointFileTest, ForeignFingerprintIsRejected) {
  CheckpointWriter writer(path_, 0x1111, /*resume=*/false);
  writer.append("alpha", 0, fancy_result());
  const CheckpointLoad load = load_checkpoint(path_, 0x2222);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("different run configuration"),
            std::string::npos);
  EXPECT_TRUE(load.chunks.empty());
}

TEST_F(CheckpointFileTest, CorruptedChunkLineRejectsTheWholeFile) {
  {
    CheckpointWriter writer(path_, 0x42, /*resume=*/false);
    writer.append("alpha", 0, fancy_result());
  }
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const size_t digit = content.find(" 12 ") + 1;
  content[digit] = '9';
  write_file(content);
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("checksum mismatch"), std::string::npos);
}

TEST_F(CheckpointFileTest, DuplicateChunkIsRejected) {
  CheckpointWriter writer(path_, 0x42, /*resume=*/false);
  writer.append("alpha", 0, fancy_result());
  writer.append("alpha", 0, fancy_result());
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("duplicate chunk"), std::string::npos);
}

TEST_F(CheckpointFileTest, NewlinelessTailIsDroppedNotRejected) {
  {
    CheckpointWriter writer(path_, 0x42, /*resume=*/false);
    writer.append("alpha", 0, fancy_result());
    writer.append("alpha", 1, fancy_result());
  }
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  // A SIGKILL mid-append leaves a prefix of the last line and no newline.
  write_file(content.substr(0, content.size() - 25));
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_TRUE(load.dropped_partial_tail);
  EXPECT_EQ(load.chunks.size(), 1u);
  EXPECT_EQ(load.chunks.count({"alpha", 0}), 1u);
}

TEST_F(CheckpointFileTest, GarbageAndMissingHeadersAreRejected) {
  write_file("not a checkpoint at all\n");
  EXPECT_FALSE(load_checkpoint(path_, 0x42).ok());

  write_file("");
  const CheckpointLoad empty = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.error.find("no complete header"), std::string::npos);

  const CheckpointLoad missing =
      load_checkpoint(path_ + ".does-not-exist", 0x42);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
}

TEST_F(CheckpointFileTest, HeaderOnlyFileResumesToNothing) {
  {
    CheckpointWriter writer(path_, 0x42, /*resume=*/false);
  }
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_TRUE(load.chunks.empty());
}

}  // namespace
}  // namespace wsync
