#include "src/sync/runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/adversary/basic.h"
#include "src/trapdoor/trapdoor.h"

namespace wsync {
namespace {

RunSpec trapdoor_spec(int F, int t, int64_t N, int n, RoundId max_rounds) {
  RunSpec spec;
  spec.sim.F = F;
  spec.sim.t = t;
  spec.sim.N = N;
  spec.sim.n = n;
  spec.factory = TrapdoorProtocol::factory();
  spec.make_adversary = [t] {
    return std::make_unique<RandomSubsetAdversary>(t);
  };
  spec.make_activation = [n] {
    return std::make_unique<SimultaneousActivation>(n);
  };
  spec.max_rounds = max_rounds;
  return spec;
}

TEST(RunnerTest, TrapdoorRunReachesLivenessWithCleanProperties) {
  const RunSpec spec = trapdoor_spec(8, 2, 32, 8, 200000);
  RunSpec seeded = spec;
  seeded.sim.seed = 12345;
  const RunOutcome outcome = run_sync_experiment(seeded);
  EXPECT_TRUE(outcome.synced);
  EXPECT_TRUE(outcome.properties.ok());
  EXPECT_GT(outcome.rounds, 0);
  EXPECT_EQ(outcome.properties.max_simultaneous_leaders, 1);
  for (RoundId latency : outcome.sync_latency) {
    EXPECT_GE(latency, 0);
  }
  EXPECT_LE(outcome.last_sync_round, outcome.rounds);
}

TEST(RunnerTest, ExtraRoundsKeepVerifying) {
  RunSpec spec = trapdoor_spec(8, 2, 32, 4, 200000);
  spec.extra_rounds = 500;
  spec.sim.seed = 99;
  const RunOutcome outcome = run_sync_experiment(spec);
  EXPECT_TRUE(outcome.synced);
  EXPECT_TRUE(outcome.properties.ok());
  EXPECT_GE(outcome.properties.rounds_observed, outcome.rounds + 500);
}

TEST(RunnerTest, BudgetExhaustionReportsNotSynced) {
  const RunSpec spec = trapdoor_spec(8, 2, 1024, 4, 3);  // 3 rounds only
  RunSpec seeded = spec;
  seeded.sim.seed = 7;
  const RunOutcome outcome = run_sync_experiment(seeded);
  EXPECT_FALSE(outcome.synced);
  EXPECT_EQ(outcome.rounds, 3);
}

TEST(RunnerTest, SeedsProduceIndependentButDeterministicRuns) {
  const RunSpec spec = trapdoor_spec(8, 2, 32, 6, 200000);
  const std::vector<uint64_t> seeds = {1, 2, 3};
  std::vector<RunOutcome> a;
  for (const uint64_t seed : seeds) {
    RunSpec seeded = spec;
    seeded.sim.seed = seed;
    const RunOutcome first = run_sync_experiment(seeded);
    const RunOutcome again = run_sync_experiment(seeded);
    EXPECT_EQ(first.rounds, again.rounds) << "seed " << seed;
    EXPECT_EQ(first.last_sync_round, again.last_sync_round) << "seed " << seed;
    a.push_back(first);
  }
  // Independent: distinct seeds do not replay one execution.
  EXPECT_FALSE(a[0].rounds == a[1].rounds && a[1].rounds == a[2].rounds &&
               a[0].sync_latency == a[1].sync_latency &&
               a[1].sync_latency == a[2].sync_latency);
}

TEST(RunnerTest, ValidatesSpec) {
  RunSpec spec;
  EXPECT_THROW(run_sync_experiment(spec), std::invalid_argument);
  spec = trapdoor_spec(4, 1, 4, 2, 0);
  EXPECT_THROW(run_sync_experiment(spec), std::invalid_argument);
}

TEST(RunnerTest, MaxBroadcastWeightIsTracked) {
  RunSpec spec = trapdoor_spec(4, 1, 16, 8, 200000);
  spec.sim.seed = 5;
  const RunOutcome outcome = run_sync_experiment(spec);
  EXPECT_GT(outcome.max_broadcast_weight, 0.0);
}

TEST(RunnerTest, SingleNodeEventuallyLeadsItself) {
  const RunSpec spec = trapdoor_spec(4, 1, 16, 1, 200000);
  RunSpec seeded = spec;
  seeded.sim.seed = 77;
  const RunOutcome outcome = run_sync_experiment(seeded);
  EXPECT_TRUE(outcome.synced);
  EXPECT_TRUE(outcome.properties.ok());
}

}  // namespace
}  // namespace wsync
