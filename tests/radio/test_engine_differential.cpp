// The dense↔sparse differential wall.
//
// The sparse wake-event engine must be bit-identical to the dense reference
// loop on every execution — same seed in, same everything out. These tests
// run the same spec under both engines in lockstep across the full
// ProtocolKind / AdversaryKind / ActivationKind axes (plus crash injection)
// and diff every observable surface:
//   * the RoundReport stream, round by round;
//   * the full trace (round events, activations, deliveries, sync events,
//     crashes) via MemoryTrace;
//   * every observer (outputs, roles, sync/activation rounds, counters);
//   * the EnergyLedger, per node and in aggregate;
//   * run_sync_experiment outcomes and PointResult aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/adversary/basic.h"
#include "src/dutycycle/duty_cycle.h"
#include "src/experiment/sweep.h"
#include "src/radio/activation.h"
#include "src/radio/engine.h"
#include "src/radio/trace.h"
#include "src/sync/runner.h"
#include "tests/testing/point_runner.h"
#include "tests/testing/sim_builder.h"

namespace wsync {
namespace {

using testing::EnginePair;

struct DiffCase {
  ExperimentPoint point;
  uint64_t seed = 0x1D1FF;
  RoundId rounds = 400;
  bool crash = false;
};

/// One spec, both engines, with traces attached for stream diffing.
struct TracedPair {
  EnginePair sims;
  MemoryTrace dense_trace;
  MemoryTrace sparse_trace;
};

TracedPair make_pair(const DiffCase& c) {
  TracedPair pair;
  RunSpec spec = make_run_spec(c.point);
  spec.sim.seed = c.seed;
  auto build = [&](EngineMode mode, MemoryTrace* trace) {
    SimConfig config = spec.sim;
    config.engine = mode;
    return std::make_unique<Simulation>(config, spec.factory,
                                        spec.make_adversary(),
                                        spec.make_activation(), trace);
  };
  pair.sims.dense = build(EngineMode::kDense, &pair.dense_trace);
  pair.sims.sparse = build(EngineMode::kSparse, &pair.sparse_trace);
  return pair;
}

/// Crashes the highest-id live node on both engines (same deterministic
/// choice; the engines agree on liveness by induction).
void crash_highest_live(EnginePair& sims) {
  const int n = sims.dense->config().n;
  for (NodeId id = n - 1; id >= 0; --id) {
    if (sims.dense->is_active(id) && !sims.dense->is_crashed(id)) {
      sims.dense->crash(id);
      sims.sparse->crash(id);
      return;
    }
  }
}

void run_differential(const DiffCase& c) {
  TracedPair pair = make_pair(c);
  for (RoundId r = 0; r < c.rounds; ++r) {
    if (c.crash && r == c.rounds / 3 && pair.sims.dense->active_count() >= 2) {
      crash_highest_live(pair.sims);
    }
    pair.sims.step();
    if (::testing::Test::HasFailure()) {
      FAIL() << "engines diverged at round " << r;
    }
  }
  pair.sims.expect_same_state();
  // The full trace streams must match element for element.
  EXPECT_EQ(pair.dense_trace.rounds(), pair.sparse_trace.rounds());
  EXPECT_EQ(pair.dense_trace.activations(), pair.sparse_trace.activations());
  EXPECT_EQ(pair.dense_trace.deliveries(), pair.sparse_trace.deliveries());
  EXPECT_EQ(pair.dense_trace.sync_events(), pair.sparse_trace.sync_events());
  EXPECT_EQ(pair.dense_trace.crashes(), pair.sparse_trace.crashes());
}

std::string case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  const ExperimentPoint& p = info.param.point;
  std::string name = std::string(to_string(p.protocol)) + "_" +
                     to_string(p.adversary) + "_" + to_string(p.activation) +
                     (info.param.crash ? "_crash" : "") + "_i" +
                     std::to_string(info.index);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// Every protocol kind (always-on and duty-cycled), every adversary kind,
/// every activation kind — each axis swept with the others held at values
/// that keep the execution busy (jamming on, staggered wakes).
std::vector<DiffCase> all_axis_cases() {
  std::vector<DiffCase> cases;
  const ProtocolKind protocols[] = {
      ProtocolKind::kTrapdoor,        ProtocolKind::kTrapdoorFullBand,
      ProtocolKind::kGoodSamaritan,   ProtocolKind::kWakeupBaseline,
      ProtocolKind::kAloha,           ProtocolKind::kFaultTolerantTrapdoor,
      ProtocolKind::kDutyCycle,       ProtocolKind::kEnergyOracle};
  const AdversaryKind adversaries[] = {
      AdversaryKind::kNone,           AdversaryKind::kFixedFirst,
      AdversaryKind::kRandomSubset,   AdversaryKind::kSweep,
      AdversaryKind::kGilbertElliott, AdversaryKind::kGreedyDelivery,
      AdversaryKind::kGreedyListener, AdversaryKind::kDutyCycle,
      AdversaryKind::kWhitespace};
  const ActivationKind activations[] = {
      ActivationKind::kSimultaneous, ActivationKind::kStaggeredUniform,
      ActivationKind::kSequential,   ActivationKind::kTwoBatch,
      ActivationKind::kPoisson};

  uint64_t seed = 0xD1FF'0000;
  for (const ProtocolKind protocol : protocols) {
    DiffCase c;
    c.point.F = 8;
    c.point.t = 2;
    c.point.n = 5;
    c.point.N = 32;
    c.point.protocol = protocol;
    c.point.adversary = AdversaryKind::kRandomSubset;
    c.point.activation = ActivationKind::kStaggeredUniform;
    c.point.activation_window = 16;
    c.seed = ++seed;
    cases.push_back(c);
    // The same spec again with a mid-run crash (sleeping victims included).
    c.crash = true;
    c.seed = ++seed;
    cases.push_back(c);
  }
  for (const AdversaryKind adversary : adversaries) {
    DiffCase c;
    c.point.F = 8;
    c.point.t = 3;
    c.point.n = 4;
    c.point.N = 32;
    c.point.protocol = ProtocolKind::kDutyCycle;
    c.point.adversary = adversary;
    c.point.activation = ActivationKind::kStaggeredUniform;
    c.point.activation_window = 12;
    if (adversary == AdversaryKind::kWhitespace) {
      c.point.whitespace_available = 5;
      c.point.whitespace_shared = 2;
    }
    c.seed = ++seed;
    cases.push_back(c);
  }
  for (const ActivationKind activation : activations) {
    DiffCase c;
    c.point.F = 6;
    c.point.t = 1;
    c.point.n = 6;
    c.point.N = 48;
    c.point.protocol = ProtocolKind::kDutyCycle;
    c.point.adversary = AdversaryKind::kSweep;
    c.point.activation = activation;
    c.point.activation_window = 20;
    c.seed = ++seed;
    cases.push_back(c);
  }
  // Drift cases: per-node local clocks desynchronize the outputs while the
  // engines must stay in lockstep. The duty-cycled runs add the resync
  // cadence (certain leader beacons + dormant listen-only wakes), which is
  // exactly the state the sparse fast-forward path must telescope right.
  for (const int ppm : {50, 5'000, 250'000}) {
    DiffCase c;
    c.point.F = 8;
    c.point.t = 2;
    c.point.n = 5;
    c.point.N = 32;
    c.point.protocol = ProtocolKind::kDutyCycle;
    c.point.adversary = AdversaryKind::kRandomSubset;
    c.point.activation = ActivationKind::kStaggeredUniform;
    c.point.activation_window = 16;
    c.point.drift_ppm = ppm;
    c.point.resync_awake_slots = 8;
    c.seed = ++seed;
    cases.push_back(c);
    c.crash = true;
    c.seed = ++seed;
    cases.push_back(c);
    DiffCase t = c;  // the always-on twin drifts without any resync path
    t.crash = false;
    t.point.protocol = ProtocolKind::kTrapdoor;
    t.point.resync_awake_slots = 0;
    t.seed = ++seed;
    cases.push_back(t);
  }
  return cases;
}

class EngineDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(EngineDifferential, DenseAndSparseAreBitIdentical) {
  run_differential(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Axes, EngineDifferential,
                         ::testing::ValuesIn(all_axis_cases()), case_name);

TEST(EngineDifferentialTest, RunnerOutcomesMatchThroughBothEngines) {
  // The full experiment harness (run_until_synced under the hood, including
  // the sparse engine's idle fast-forward) must land on the same outcome.
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.n = 4;
  point.N = 32;
  point.protocol = ProtocolKind::kDutyCycle;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 10;

  auto run_with = [&](EngineMode mode) {
    ExperimentPoint p = point;
    p.engine = mode;
    return testing::run_one_point(p, 3);
  };
  const PointResult dense = run_with(EngineMode::kDense);
  const PointResult sparse = run_with(EngineMode::kSparse);

  EXPECT_EQ(dense.runs, sparse.runs);
  EXPECT_EQ(dense.synced_runs, sparse.synced_runs);
  EXPECT_EQ(dense.timeout_runs, sparse.timeout_runs);
  EXPECT_EQ(dense.rounds_to_live.mean, sparse.rounds_to_live.mean);
  EXPECT_EQ(dense.max_node_latency.max, sparse.max_node_latency.max);
  EXPECT_EQ(dense.agreement_violations, sparse.agreement_violations);
  EXPECT_EQ(dense.max_broadcast_weight, sparse.max_broadcast_weight);
  EXPECT_EQ(dense.max_awake_rounds.max, sparse.max_awake_rounds.max);
  EXPECT_EQ(dense.mean_awake_rounds.mean, sparse.mean_awake_rounds.mean);
  EXPECT_EQ(dense.awake_fraction.mean, sparse.awake_fraction.mean);
  EXPECT_EQ(dense.broadcast_rounds, sparse.broadcast_rounds);
  EXPECT_EQ(dense.listen_rounds, sparse.listen_rounds);
  EXPECT_EQ(dense.sleep_rounds, sparse.sleep_rounds);
}

TEST(EngineDifferentialTest, CrashThenResumeKeepsEnginesAndLedgersAligned) {
  // Regression for the run_until_synced liveness check: resuming an
  // already-synced simulation used to execute one extra dense round while
  // the sparse engine fast-forwarded to the next wake event, so a crash
  // between the two runs landed inside a window only one engine had billed
  // (first seen at seed 26, cut 200: dense resumed to round 120, sparse to
  // 121, with ledger totals off by the skipped window). Drive both engines
  // through run -> crash -> resume and diff rounds, per-node energy and
  // outputs across a seed sweep that includes the original repro.
  SimConfig base;
  base.F = 4;
  base.t = 1;
  base.N = 8;
  base.n = 6;
  auto make = [&](uint64_t seed, EngineMode mode) {
    SimConfig config = base;
    config.seed = seed;
    config.engine = mode;
    return std::make_unique<Simulation>(
        config, DutyCycleProtocol::factory({}),
        std::make_unique<NoneAdversary>(),
        std::make_unique<SimultaneousActivation>(config.n, 0));
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (const RoundId cut : {RoundId{200}, RoundId{700}, RoundId{2500}}) {
      auto dense = make(seed, EngineMode::kDense);
      auto sparse = make(seed, EngineMode::kSparse);
      dense->run_until_synced(cut);
      sparse->run_until_synced(cut);
      ASSERT_EQ(dense->round(), sparse->round())
          << "seed " << seed << " cut " << cut;
      if (!dense->is_crashed(0)) {
        dense->crash(0);
        sparse->crash(0);
      }
      dense->run_until_synced(cut + 2000);
      sparse->run_until_synced(cut + 2000);
      ASSERT_EQ(dense->round(), sparse->round())
          << "seed " << seed << " cut " << cut;
      for (NodeId id = 0; id < base.n; ++id) {
        ASSERT_EQ(dense->energy().node(id), sparse->energy().node(id))
            << "seed " << seed << " cut " << cut << " node " << id;
        ASSERT_EQ(dense->output(id).value, sparse->output(id).value)
            << "seed " << seed << " cut " << cut << " node " << id;
      }
      ASSERT_EQ(dense->energy().totals(), sparse->energy().totals())
          << "seed " << seed << " cut " << cut;
    }
  }
}

TEST(EngineDifferentialTest, ResumingASyncedSimulationIsANoOp) {
  // The sharper pin: once run_until_synced returns synced, calling it again
  // must not advance the round at all — in either engine.
  for (const EngineMode mode : {EngineMode::kDense, EngineMode::kSparse}) {
    SimConfig config;
    config.F = 4;
    config.t = 1;
    config.N = 8;
    config.n = 6;
    config.seed = 26;
    config.engine = mode;
    Simulation sim(config, DutyCycleProtocol::factory({}),
                   std::make_unique<NoneAdversary>(),
                   std::make_unique<SimultaneousActivation>(config.n, 0));
    const auto first = sim.run_until_synced(5000);
    ASSERT_TRUE(first.synced);
    const auto again = sim.run_until_synced(10000);
    EXPECT_TRUE(again.synced);
    EXPECT_EQ(again.rounds, first.rounds)
        << to_string(mode) << ": resume advanced a synced simulation";
  }
}

TEST(EngineDifferentialTest, AutoResolvesToSparseAndDenseStaysDense) {
  testing::SimBuilder builder(4, 0, 2);
  EXPECT_EQ(builder.build(EngineMode::kAuto)->engine_mode(),
            EngineMode::kSparse);
  EXPECT_EQ(builder.build(EngineMode::kSparse)->engine_mode(),
            EngineMode::kSparse);
  EXPECT_EQ(builder.build(EngineMode::kDense)->engine_mode(),
            EngineMode::kDense);
  EXPECT_EQ(builder.build(EngineMode::kDense)->fast_forwarded_rounds(), 0);
}

TEST(EngineDifferentialTest, MaintenanceReportsMatchAcrossEngines) {
  // run_maintenance steps round by round on the dense engine and rides the
  // wake-event queue on the sparse one; the observed spread trajectory,
  // violation counts and resync totals must be bit-identical anyway.
  ExperimentPoint point;
  point.F = 16;
  point.t = 4;
  point.n = 8;
  point.N = 64;
  point.protocol = ProtocolKind::kDutyCycle;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 32;
  point.drift_ppm = 200;
  point.resync_awake_slots = 8;

  auto run_with = [&](EngineMode mode) {
    ExperimentPoint p = point;
    p.engine = mode;
    RunSpec spec = make_run_spec(p);
    spec.sim.seed = 0xD01F;
    auto sim = std::make_unique<Simulation>(spec.sim, spec.factory,
                                            spec.make_adversary(),
                                            spec.make_activation());
    sim->run_until_synced(spec.max_rounds);
    const Simulation::MaintenanceReport report =
        sim->run_maintenance(4000, /*offset_bound=*/48);
    return std::make_pair(std::move(sim), report);
  };
  auto [dense, dense_report] = run_with(EngineMode::kDense);
  auto [sparse, sparse_report] = run_with(EngineMode::kSparse);

  EXPECT_EQ(dense_report, sparse_report);
  EXPECT_EQ(dense_report.rounds, 4000);
  EXPECT_GT(dense_report.resync_count, 0);  // the cadence did real work
  ASSERT_EQ(dense->round(), sparse->round());
  EXPECT_EQ(dense->energy().totals(), sparse->energy().totals());
  for (NodeId id = 0; id < point.n; ++id) {
    EXPECT_EQ(dense->output(id), sparse->output(id)) << "node " << id;
    EXPECT_EQ(dense->energy().node(id), sparse->energy().node(id))
        << "node " << id;
  }
}

TEST(EngineDifferentialTest, MaintenanceOutcomesMatchThroughRunner) {
  // Same property one layer up: a point with a maintenance phase must
  // aggregate identical drift columns from either engine.
  ExperimentPoint point;
  point.F = 16;
  point.t = 4;
  point.n = 6;
  point.N = 64;
  point.protocol = ProtocolKind::kDutyCycle;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 24;
  point.drift_ppm = 120;
  point.resync_awake_slots = 8;
  point.maintenance_rounds = 2000;
  point.offset_bound = 64;

  auto run_with = [&](EngineMode mode) {
    ExperimentPoint p = point;
    p.engine = mode;
    return testing::run_one_point(p, 3);
  };
  const PointResult dense = run_with(EngineMode::kDense);
  const PointResult sparse = run_with(EngineMode::kSparse);
  EXPECT_EQ(dense.max_offset.max, sparse.max_offset.max);
  EXPECT_EQ(dense.max_offset.mean, sparse.max_offset.mean);
  EXPECT_EQ(dense.offset_violations, sparse.offset_violations);
  EXPECT_EQ(dense.resync_count, sparse.resync_count);
  EXPECT_EQ(dense.synced_runs, sparse.synced_runs);
  EXPECT_EQ(dense.broadcast_rounds, sparse.broadcast_rounds);
  EXPECT_EQ(dense.listen_rounds, sparse.listen_rounds);
  EXPECT_EQ(dense.sleep_rounds, sparse.sleep_rounds);
}

TEST(EngineDifferentialTest, CrashWaveRunsMatchThroughRunner) {
  // Crash waves fire by round index inside the runner; a wave landing in a
  // window where every duty-cycled node sleeps is exactly the stale-count
  // regime the sparse observers must get right.
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.n = 5;
  point.N = 32;
  point.protocol = ProtocolKind::kDutyCycle;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;
  point.crash_waves = {{40, 1}, {200, 1}};

  auto outcome_with = [&](EngineMode mode) {
    ExperimentPoint p = point;
    p.engine = mode;
    RunSpec spec = make_run_spec(p);
    spec.sim.seed = 77;
    return run_sync_experiment(spec);
  };
  const RunOutcome dense = outcome_with(EngineMode::kDense);
  const RunOutcome sparse = outcome_with(EngineMode::kSparse);
  EXPECT_EQ(dense.synced, sparse.synced);
  EXPECT_EQ(dense.rounds, sparse.rounds);
  EXPECT_EQ(dense.last_sync_round, sparse.last_sync_round);
  EXPECT_EQ(dense.sync_latency, sparse.sync_latency);
  EXPECT_EQ(dense.max_broadcast_weight, sparse.max_broadcast_weight);
  EXPECT_EQ(dense.energy, sparse.energy);
}

}  // namespace
}  // namespace wsync
