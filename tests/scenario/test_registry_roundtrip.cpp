// Registry round-trip: every catalog scenario validates, runs a seed to
// completion, and produces bit-identical aggregates at 1 vs 4 workers —
// the cross-worker determinism contract extended to the whole catalog.
#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/service/streaming_sweep.h"

namespace wsync {
namespace {

void expect_same_summary(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
}

void expect_same_result(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.synced_runs, b.synced_runs);
  EXPECT_EQ(a.timeout_runs, b.timeout_runs);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.commit_violations, b.commit_violations);
  EXPECT_EQ(a.correctness_violations, b.correctness_violations);
  EXPECT_EQ(a.max_leaders, b.max_leaders);
  EXPECT_EQ(a.multi_leader_runs, b.multi_leader_runs);
  EXPECT_EQ(a.max_broadcast_weight, b.max_broadcast_weight);
  expect_same_summary(a.rounds_to_live, b.rounds_to_live);
  expect_same_summary(a.max_node_latency, b.max_node_latency);
  // The energy ledger totals are part of the determinism contract too.
  EXPECT_EQ(a.broadcast_rounds, b.broadcast_rounds);
  EXPECT_EQ(a.listen_rounds, b.listen_rounds);
  EXPECT_EQ(a.sleep_rounds, b.sleep_rounds);
  EXPECT_EQ(a.energy_budget_violations, b.energy_budget_violations);
  expect_same_summary(a.max_awake_rounds, b.max_awake_rounds);
  expect_same_summary(a.mean_awake_rounds, b.mean_awake_rounds);
}

class RegistryRoundTripTest
    : public ::testing::TestWithParam<const Scenario*> {};

std::string scenario_name(
    const ::testing::TestParamInfo<const Scenario*>& info) {
  return info.param->name;
}

TEST_P(RegistryRoundTripTest, RunsOneSeedIdenticallyAcrossWorkerCounts) {
  const Scenario& scenario = *GetParam();
  ASSERT_NO_THROW(validate(scenario));

  ThreadPool one_worker(1);
  const ScenarioResult one = run_scenario(scenario, /*seeds=*/1, one_worker);
  ASSERT_EQ(one.points.size(), scenario.grid.size());
  for (const PointResult& r : one.points) {
    // Every run completed (synced or counted as a timeout), and the one
    // unconditional hard property held.
    EXPECT_EQ(r.runs, 1);
    EXPECT_EQ(r.synced_runs + r.timeout_runs, r.runs);
    EXPECT_EQ(r.commit_violations, 0);
    // Energy was measured on every run: always-on protocols burn at least
    // one awake round, and the split sums to n x observed rounds.
    EXPECT_GT(r.max_awake_rounds.max, 0.0);
    EXPECT_GT(r.broadcast_rounds + r.listen_rounds, 0);
  }

  ThreadPool four_workers(4);
  const ScenarioResult four =
      run_scenario(scenario, /*seeds=*/1, four_workers);
  ASSERT_EQ(four.points.size(), one.points.size());
  for (size_t i = 0; i < one.points.size(); ++i) {
    expect_same_result(one.points[i], four.points[i]);
  }
  EXPECT_EQ(one.failures, four.failures);
}

std::vector<const Scenario*> catalog_pointers() {
  std::vector<const Scenario*> out;
  for (const Scenario& scenario : ScenarioRegistry::all()) {
    out.push_back(&scenario);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Catalog, RegistryRoundTripTest,
                         ::testing::ValuesIn(catalog_pointers()),
                         scenario_name);

}  // namespace
}  // namespace wsync
