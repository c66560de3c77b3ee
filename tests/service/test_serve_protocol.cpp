// Serve-protocol grammar wall: the exact line grammar wsync_serve accepts,
// pinned at the parser level (the CTest CLI cases pin the tool's exit codes
// and error text on top of this).
#include "src/service/serve_protocol.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace wsync {
namespace {

ServeJob parse_or_die(const std::string& line) {
  const auto job = parse_job_line(line);
  EXPECT_TRUE(job.has_value()) << line;
  return *job;
}

void expect_malformed(const std::string& line) {
  try {
    parse_job_line(line);
    FAIL() << "expected malformed: " << line;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("malformed job line", 0), 0u)
        << error.what();
  }
}

TEST(ServeProtocolTest, RunJobWithAllOptions) {
  const ServeJob job = parse_or_die(
      "run trapdoor_basic seeds=5 max_rounds=2000 engine=dense");
  EXPECT_EQ(job.kind, ServeJob::Kind::kRun);
  EXPECT_EQ(job.name, "trapdoor_basic");
  EXPECT_EQ(job.seeds, 5);
  EXPECT_EQ(job.max_rounds, 2000);
  EXPECT_EQ(job.engine, EngineMode::kDense);
}

TEST(ServeProtocolTest, DefaultsWhenOptionsOmitted) {
  const ServeJob job = parse_or_die("run trapdoor_basic");
  EXPECT_EQ(job.seeds, 0);
  EXPECT_EQ(job.max_rounds, 0);
  EXPECT_EQ(job.engine, EngineMode::kAuto);
}

TEST(ServeProtocolTest, AllPingAndQuit) {
  EXPECT_EQ(parse_or_die("all seeds=2").kind, ServeJob::Kind::kAll);
  EXPECT_EQ(parse_or_die("all seeds=2").seeds, 2);
  EXPECT_EQ(parse_or_die("ping").kind, ServeJob::Kind::kPing);
  EXPECT_EQ(parse_or_die("quit").kind, ServeJob::Kind::kQuit);
  EXPECT_EQ(parse_or_die("  all\tengine=sparse  ").engine,
            EngineMode::kSparse);
}

TEST(ServeProtocolTest, BlankAndCommentLinesAreSkipped) {
  EXPECT_FALSE(parse_job_line("").has_value());
  EXPECT_FALSE(parse_job_line("   \t  ").has_value());
  EXPECT_FALSE(parse_job_line("# a comment").has_value());
  EXPECT_FALSE(parse_job_line("#all seeds=2").has_value());
}

TEST(ServeProtocolTest, MalformedLinesThrowWithThePinnedPrefix) {
  expect_malformed("launch trapdoor_basic");     // unknown command
  expect_malformed("run");                       // missing scenario name
  expect_malformed("run seeds=2");               // option where name goes
  expect_malformed("run x seeds=2 seeds=3");     // duplicate option
  expect_malformed("run x seeds=zero");          // non-numeric value
  expect_malformed("run x seeds=0");             // below minimum
  expect_malformed("run x seeds=9999999");       // above maximum
  expect_malformed("run x max_rounds=-5");       // negative budget
  expect_malformed("run x engine=warp");         // unknown engine
  expect_malformed("run x turbo=yes");           // unknown option
  expect_malformed("run x extra");               // junk token
  expect_malformed("ping now");                  // ping takes no options
  expect_malformed("quit seeds=2");              // quit takes no options
}

TEST(ServeProtocolTest, EngineModeParserCoversEveryEnumerator) {
  EngineMode mode = EngineMode::kAuto;
  ASSERT_TRUE(parse_engine_mode("dense", &mode));
  EXPECT_EQ(mode, EngineMode::kDense);
  ASSERT_TRUE(parse_engine_mode("sparse", &mode));
  EXPECT_EQ(mode, EngineMode::kSparse);
  ASSERT_TRUE(parse_engine_mode("auto", &mode));
  EXPECT_EQ(mode, EngineMode::kAuto);
  EXPECT_FALSE(parse_engine_mode("Dense", &mode));
  EXPECT_FALSE(parse_engine_mode("", &mode));
}

TEST(ServeProtocolTest, WithOverridesReachesEveryGridPoint) {
  Scenario scenario;
  scenario.name = "two_points";
  scenario.grid.resize(2);
  scenario.grid[0].max_rounds = 100;
  scenario.grid[1].max_rounds = 200;
  scenario.grid[1].engine = EngineMode::kSparse;

  // No budget and kAuto: the scenario comes back unchanged.
  const Scenario same = with_overrides(scenario, 0, EngineMode::kAuto);
  ASSERT_EQ(same.grid.size(), 2u);
  EXPECT_EQ(same.grid[0].max_rounds, 100);
  EXPECT_EQ(same.grid[0].engine, EngineMode::kAuto);
  EXPECT_EQ(same.grid[1].max_rounds, 200);
  EXPECT_EQ(same.grid[1].engine, EngineMode::kSparse);

  // A set budget and engine land on every point.
  const Scenario forced = with_overrides(scenario, 7, EngineMode::kDense);
  ASSERT_EQ(forced.grid.size(), 2u);
  for (const ExperimentPoint& point : forced.grid) {
    EXPECT_EQ(point.max_rounds, 7);
    EXPECT_EQ(point.engine, EngineMode::kDense);
  }
  EXPECT_EQ(forced.name, "two_points");
}

}  // namespace
}  // namespace wsync
