#include "src/experiment/sweep.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tests/testing/point_runner.h"

namespace wsync {
namespace {

TEST(SweepTest, MakeSeedsIsDeterministicAndDistinct) {
  const auto a = make_seeds(10);
  const auto b = make_seeds(10);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_NE(a[0], a[i]);
  const auto c = make_seeds(10, 999);
  EXPECT_NE(a, c);
}

TEST(SweepTest, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(ProtocolKind::kTrapdoor), "trapdoor");
  EXPECT_STREQ(to_string(ProtocolKind::kGoodSamaritan), "good_samaritan");
  EXPECT_STREQ(to_string(ProtocolKind::kDutyCycle), "duty_cycle");
  EXPECT_STREQ(to_string(ProtocolKind::kEnergyOracle), "energy_oracle");
  EXPECT_STREQ(to_string(AdversaryKind::kRandomSubset), "random_subset");
  EXPECT_STREQ(to_string(AdversaryKind::kDutyCycle), "duty_cycle");
  EXPECT_STREQ(to_string(ActivationKind::kStaggeredUniform), "staggered");
  EXPECT_STREQ(to_string(ActivationKind::kPoisson), "poisson");
}

TEST(SweepTest, MakeRunSpecFillsDefaults) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 32;
  point.n = 4;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  const RunSpec spec = make_run_spec(point);
  EXPECT_EQ(spec.sim.F, 8);
  EXPECT_GT(spec.max_rounds, 0);
  EXPECT_NE(spec.factory, nullptr);
  EXPECT_NE(spec.make_adversary, nullptr);
  EXPECT_NE(spec.make_activation, nullptr);
}

TEST(SweepTest, JamCountDefaultsToTAndValidates) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 8;
  point.n = 2;
  point.jam_count = 3;  // exceeds t
  point.adversary = AdversaryKind::kRandomSubset;
  EXPECT_THROW(make_run_spec(point), std::invalid_argument);
}

TEST(SweepTest, RunPointAggregatesTrapdoorRuns) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 32;
  point.n = 6;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;
  const PointResult result = testing::run_one_point(point, 5);
  EXPECT_EQ(result.runs, 5);
  EXPECT_EQ(result.synced_runs, 5);
  EXPECT_EQ(result.agreement_violations, 0);
  EXPECT_EQ(result.commit_violations, 0);
  EXPECT_EQ(result.correctness_violations, 0);
  EXPECT_EQ(result.max_leaders, 1);
  EXPECT_EQ(result.multi_leader_runs, 0);
  EXPECT_GT(result.rounds_to_live.mean, 0.0);
  EXPECT_GT(result.max_node_latency.mean, 0.0);
}

TEST(SweepTest, EveryProtocolKindRunsAtSmallScale) {
  for (const ProtocolKind kind :
       {ProtocolKind::kTrapdoor, ProtocolKind::kTrapdoorFullBand,
        ProtocolKind::kWakeupBaseline, ProtocolKind::kAloha,
        ProtocolKind::kFaultTolerantTrapdoor, ProtocolKind::kDutyCycle,
        ProtocolKind::kEnergyOracle}) {
    ExperimentPoint point;
    point.F = 4;
    point.t = 1;
    point.N = 8;
    point.n = 3;
    point.protocol = kind;
    point.adversary = AdversaryKind::kNone;
    const PointResult result = testing::run_one_point(point, 2);
    EXPECT_EQ(result.synced_runs, 2) << to_string(kind);
  }
}

TEST(SweepTest, EveryAdversaryKindRunsAtSmallScale) {
  for (const AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kFixedFirst,
        AdversaryKind::kRandomSubset, AdversaryKind::kSweep,
        AdversaryKind::kGilbertElliott, AdversaryKind::kGreedyDelivery,
        AdversaryKind::kGreedyListener, AdversaryKind::kDutyCycle}) {
    ExperimentPoint point;
    point.F = 8;
    point.t = 2;
    point.N = 16;
    point.n = 4;
    point.adversary = kind;
    const PointResult result = testing::run_one_point(point, 2);
    EXPECT_EQ(result.synced_runs, 2) << to_string(kind);
    EXPECT_EQ(result.agreement_violations, 0) << to_string(kind);
  }
}

TEST(SweepTest, EveryActivationKindRunsAtSmallScale) {
  for (const ActivationKind kind :
       {ActivationKind::kSimultaneous, ActivationKind::kStaggeredUniform,
        ActivationKind::kSequential, ActivationKind::kTwoBatch,
        ActivationKind::kPoisson}) {
    ExperimentPoint point;
    point.F = 8;
    point.t = 2;
    point.N = 16;
    point.n = 4;
    point.activation = kind;
    point.activation_window = 32;
    point.adversary = AdversaryKind::kRandomSubset;
    const PointResult result = testing::run_one_point(point, 2);
    EXPECT_EQ(result.synced_runs, 2) << to_string(kind);
  }
}

TEST(SweepTest, DutyCycleValidatesItsWindow) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 4;
  point.adversary = AdversaryKind::kDutyCycle;
  point.duty_period = 4;
  point.duty_on = 5;  // on > period
  EXPECT_THROW(make_run_spec(point), std::invalid_argument);
  point.duty_on = 2;
  EXPECT_NO_THROW(make_run_spec(point));
}

TEST(SweepTest, CrashWavesFlowIntoTheRunSpecAndCrashNodes) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 6;
  point.protocol = ProtocolKind::kFaultTolerantTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  point.crash_waves = {{5, 2}};
  const RunSpec spec = make_run_spec(point);
  ASSERT_EQ(spec.crash_waves.size(), 1u);
  EXPECT_EQ(spec.crash_waves[0].round, 5);
  EXPECT_EQ(spec.crash_waves[0].count, 2);

  // The wave crashes exactly two nodes; the survivors still synchronize,
  // and the per-node latency slots of the victims stay at -1.
  const PointResult result = testing::run_one_point(point, 2);
  EXPECT_EQ(result.synced_runs, 2);
  EXPECT_EQ(result.commit_violations, 0);
  for (uint64_t seed : make_seeds(2)) {
    RunSpec seeded = spec;
    seeded.sim.seed = seed;
    const RunOutcome outcome = run_sync_experiment(seeded);
    EXPECT_TRUE(outcome.synced);
    int never_synced = 0;
    for (RoundId latency : outcome.sync_latency) {
      if (latency < 0) ++never_synced;
    }
    // Simultaneous activation at round 0, wave at round 5: both victims
    // were pre-sync contenders, so exactly they never report a number.
    EXPECT_EQ(never_synced, 2);
  }
}

/// One synthetic run outcome; every per-run value is scaled by `scale` so
/// that each field's fold over three runs has a distinct total.
RunOutcome synthetic_outcome(bool synced, int leaders, int64_t scale) {
  RunOutcome o;
  o.synced = synced;
  o.rounds = 100 * scale;
  o.sync_latency = {3 * scale, 9 * scale, -1};
  o.properties.agreement_violations = 1 * scale;
  o.properties.synch_commit_violations = 2 * scale;
  o.properties.correctness_violations = 3 * scale;
  o.properties.max_simultaneous_leaders = leaders;
  o.max_broadcast_weight = 0.25 * static_cast<double>(scale);
  o.energy.max_awake_rounds = 40 + scale;
  o.energy.mean_awake_rounds = 20.0 * static_cast<double>(scale);
  o.energy.broadcast_rounds = 10 * scale;
  o.energy.listen_rounds = 30 * scale;
  o.energy.sleep_rounds = 5 * scale;
  o.energy.active_node_rounds = 80 * scale;
  o.max_offset_seen = 2 * scale;
  o.offset_violations = 4 * scale;
  o.resync_count = 6 * scale;
  o.rounds_simulated = 110 * scale;
  o.deliveries = 7 * scale;
  o.collisions = 8 * scale;
  o.absences = 9 * scale;
  o.knockouts = 11 * scale;
  o.wake_events_popped = 12 * scale;
  o.fast_forwarded_rounds = 13 * scale;
  return o;
}

TEST(SweepTest, AggregatePointFoldsEveryTableField) {
  ExperimentPoint point;
  point.energy_budget = 50;
  // Scales 1, 10, 100: run 2 times out, leaders are 1, 3, 2, and only run
  // 3 (max awake 140) exceeds the budget; run 1 stays under it (41) and
  // run 2 sits exactly on it (50).
  const std::vector<RunOutcome> outcomes = {
      synthetic_outcome(true, 1, 1), synthetic_outcome(false, 3, 10),
      synthetic_outcome(true, 2, 100)};
  const PointResult r = aggregate_point(point, outcomes);

  const std::vector<std::pair<int64_t PointResult::*, int64_t>> expected = {
      {&PointResult::runs, 3},
      {&PointResult::synced_runs, 2},
      {&PointResult::timeout_runs, 1},
      {&PointResult::agreement_violations, 111},
      {&PointResult::commit_violations, 222},
      {&PointResult::correctness_violations, 333},
      {&PointResult::max_leaders, 3},
      {&PointResult::multi_leader_runs, 2},
      {&PointResult::energy_budget_violations, 1},
      {&PointResult::broadcast_rounds, 1110},
      {&PointResult::listen_rounds, 3330},
      {&PointResult::sleep_rounds, 555},
      {&PointResult::offset_violations, 444},
      {&PointResult::resync_count, 666},
      {&PointResult::rounds_simulated, 12210},
      {&PointResult::deliveries, 777},
      {&PointResult::collisions, 888},
      {&PointResult::absences, 999},
      {&PointResult::knockouts, 1221},
      {&PointResult::wake_events_popped, 1332},
      {&PointResult::fast_forwarded_rounds, 1443},
  };
  ASSERT_EQ(expected.size(), kCountFields.size());
  for (size_t i = 0; i < kCountFields.size(); ++i) {
    const CountField& field = kCountFields[i];
    bool checked = false;
    for (const auto& [member, value] : expected) {
      if (member != field.member) continue;
      EXPECT_EQ(r.*member, value) << "count row " << i;
      checked = true;
    }
    EXPECT_TRUE(checked) << "count row " << i << " has no expected value";
  }
  EXPECT_EQ(r.max_broadcast_weight, 25.0);

  // Summaries: liveness measures over the two synced runs only, the rest
  // over all three.
  EXPECT_EQ(r.rounds_to_live.count, 2u);
  EXPECT_EQ(r.rounds_to_live.mean, 5050.0);
  EXPECT_EQ(r.rounds_to_live.min, 100.0);
  EXPECT_EQ(r.rounds_to_live.max, 10000.0);
  EXPECT_EQ(r.max_node_latency.count, 2u);
  EXPECT_EQ(r.max_node_latency.min, 9.0);
  EXPECT_EQ(r.max_node_latency.max, 900.0);
  EXPECT_EQ(r.max_awake_rounds.count, 3u);
  EXPECT_EQ(r.max_awake_rounds.min, 41.0);
  EXPECT_EQ(r.max_awake_rounds.max, 140.0);
  EXPECT_EQ(r.mean_awake_rounds.count, 3u);
  EXPECT_EQ(r.mean_awake_rounds.min, 20.0);
  EXPECT_EQ(r.mean_awake_rounds.max, 2000.0);
  EXPECT_EQ(r.awake_fraction.count, 3u);
  EXPECT_EQ(r.awake_fraction.min, 0.5);  // (10 + 30) / 80 at every scale
  EXPECT_EQ(r.awake_fraction.max, 0.5);
  EXPECT_EQ(r.max_offset.count, 3u);
  EXPECT_EQ(r.max_offset.min, 2.0);
  EXPECT_EQ(r.max_offset.max, 200.0);
}

TEST(SweepTest, PredictionHelpers) {
  // Theorem 10 curve grows with t (for fixed F) and with N.
  EXPECT_GT(trapdoor_predicted_rounds(16, 12, 1024),
            trapdoor_predicted_rounds(16, 4, 1024));
  EXPECT_GT(trapdoor_predicted_rounds(16, 4, 1 << 16),
            trapdoor_predicted_rounds(16, 4, 1 << 8));
  // Theorem 18 optimistic curve is linear in t'.
  EXPECT_DOUBLE_EQ(samaritan_predicted_rounds(4, 256),
                   2.0 * samaritan_predicted_rounds(2, 256));
}

}  // namespace
}  // namespace wsync
