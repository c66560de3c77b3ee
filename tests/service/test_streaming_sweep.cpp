// Streaming sweep wall: the bounded-memory chunked execution must be
// bit-identical to a hand loop over the per-run primitives, invariant under
// worker count and window size, and exactly resumable — a full or partial
// checkpoint replay yields the same sink sequence as an uninterrupted
// run, with zero tasks scheduled for replayed chunks. run_scenario, the
// sweep's in-memory one-scenario form, is pinned here too: serial (1
// worker) vs parallel identity, timeout accounting, error propagation.
// Results are compared through encode_chunk_line, so every double is
// compared by bit pattern.
#include "src/service/streaming_sweep.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/experiment/sweep.h"
#include "src/radio/trace.h"
#include "src/scenario/scenario.h"
#include "src/service/checkpoint.h"
#include "src/sync/runner.h"

namespace wsync {
namespace {

ExperimentPoint trapdoor_point(int t) {
  ExperimentPoint point;
  point.F = 8;
  point.t = t;
  point.N = 32;
  point.n = 6;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary =
      t == 0 ? AdversaryKind::kNone : AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;
  return point;
}

Scenario small_scenario(const std::string& name, int points) {
  Scenario scenario;
  scenario.name = name;
  scenario.summary = "hand-built streaming-sweep fixture";
  scenario.rationale = "exercises the sweep service in isolation";
  for (int t = 0; t < points; ++t) {
    scenario.grid.push_back(trapdoor_point(t));
  }
  scenario.default_seeds = 3;
  return scenario;
}

/// Records the full sink sequence; chunk results are captured as encoded
/// chunk lines, which makes comparisons bit-exact.
class RecordingSink : public ChunkSink {
 public:
  void on_scenario_begin(size_t scenario_index,
                         const PlannedScenario& planned) override {
    events.push_back("begin " + planned.scenario.name + " @" +
                     std::to_string(scenario_index));
  }

  void on_chunk(size_t scenario_index, size_t point_index,
                const PointResult& result, bool from_checkpoint) override {
    const PlannedScenario& planned = *scenarios_at(scenario_index);
    events.push_back(
        encode_chunk_line(planned.scenario.name, point_index, result));
    if (from_checkpoint) ++replayed;
  }

  void on_scenario_end(size_t /*scenario_index*/,
                       const PlannedScenario& planned,
                       const std::vector<PointResult>& results,
                       const std::vector<std::string>& failures) override {
    events.push_back("end " + planned.scenario.name + " points=" +
                     std::to_string(results.size()) + " failures=" +
                     std::to_string(failures.size()));
  }

  void attach(const SweepPlan* plan) { plan_ = plan; }

  std::vector<std::string> events;
  size_t replayed = 0;

 private:
  const PlannedScenario* scenarios_at(size_t index) const {
    return &plan_->scenarios[index];
  }

  const SweepPlan* plan_ = nullptr;
};

SweepPlan two_scenario_plan() {
  static const Scenario alpha = small_scenario("alpha_fixture", 3);
  static const Scenario beta = small_scenario("beta_fixture", 2);
  return make_plan({&alpha, &beta}, /*seeds_override=*/0);
}

std::vector<std::string> run_and_record(const SweepPlan& plan, int workers,
                                        size_t window,
                                        SweepOutcome* outcome = nullptr) {
  ThreadPool pool(workers);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.window = window;
  const SweepOutcome result = run_streaming_sweep(plan, pool, options, sink);
  if (outcome != nullptr) *outcome = result;
  return sink.events;
}

TEST(StreamingSweepTest, SinkSequenceHasStrictCatalogOrder) {
  const SweepPlan plan = two_scenario_plan();
  SweepOutcome outcome;
  const std::vector<std::string> events =
      run_and_record(plan, /*workers=*/2, /*window=*/0, &outcome);
  // begin alpha, 3 chunks, end alpha, begin beta, 2 chunks, end beta.
  ASSERT_EQ(events.size(), 9u);
  EXPECT_EQ(events[0], "begin alpha_fixture @0");
  EXPECT_EQ(events[4].substr(0, 4), "end ");
  EXPECT_EQ(events[5], "begin beta_fixture @1");
  EXPECT_EQ(events[8].substr(0, 4), "end ");
  EXPECT_EQ(outcome.computed_chunks, 5u);
  EXPECT_EQ(outcome.resumed_chunks, 0u);
}

TEST(StreamingSweepTest, BitIdenticalAcrossWorkersAndWindows) {
  const SweepPlan plan = two_scenario_plan();
  const std::vector<std::string> reference =
      run_and_record(plan, /*workers=*/1, /*window=*/1);
  for (const int workers : {2, 4}) {
    for (const size_t window : {size_t{1}, size_t{3}, size_t{0}}) {
      EXPECT_EQ(run_and_record(plan, workers, window), reference)
          << "workers=" << workers << " window=" << window;
    }
  }
}

TEST(StreamingSweepTest, MatchesTheOneShotScenarioRunner) {
  // run_scenario wraps the sweep, so the reference is a hand loop over the
  // per-run and per-point primitives: run_sync_experiment on make_seeds(k),
  // folded in seed order by aggregate_point.
  const Scenario scenario = small_scenario("solo_fixture", 3);
  ThreadPool pool(4);
  const ScenarioResult swept = run_scenario(scenario, /*seeds=*/0, pool);

  const std::vector<uint64_t> seeds = make_seeds(scenario.default_seeds);
  std::vector<PointResult> reference;
  for (const ExperimentPoint& point : scenario.grid) {
    const RunSpec spec = make_run_spec(point);
    std::vector<RunOutcome> outcomes;
    for (const uint64_t seed : seeds) {
      RunSpec seeded = spec;
      seeded.sim.seed = seed;
      outcomes.push_back(run_sync_experiment(seeded));
    }
    reference.push_back(aggregate_point(point, outcomes));
  }

  // Results land at the index of their point, whatever finished first.
  ASSERT_EQ(swept.points.size(), reference.size());
  for (size_t pi = 0; pi < reference.size(); ++pi) {
    EXPECT_EQ(encode_chunk_line(scenario.name, pi, swept.points[pi]),
              encode_chunk_line(scenario.name, pi, reference[pi]));
  }
  EXPECT_EQ(swept.failures, check_expectations(scenario, reference));
}

TEST(StreamingSweepTest, FullResumeComputesNothingAndMatches) {
  const SweepPlan plan = two_scenario_plan();
  const std::vector<std::string> reference =
      run_and_record(plan, /*workers=*/2, /*window=*/0);

  const std::string path = ::testing::TempDir() + "sweep_full_resume.txt";
  const uint64_t fingerprint = plan_fingerprint(plan);
  {
    ThreadPool pool(2);
    RecordingSink sink;
    sink.attach(&plan);
    CheckpointWriter writer(path, fingerprint, /*resume=*/false);
    StreamingSweepOptions options;
    options.checkpoint = &writer;
    run_streaming_sweep(plan, pool, options, sink);
  }
  const CheckpointLoad load = load_checkpoint(path, fingerprint);
  ASSERT_TRUE(load.ok()) << load.error;
  ASSERT_EQ(load.chunks.size(), plan.chunk_count());

  ThreadPool pool(4);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.resume = &load.chunks;
  const SweepOutcome outcome = run_streaming_sweep(plan, pool, options, sink);
  EXPECT_EQ(outcome.computed_chunks, 0u);
  EXPECT_EQ(outcome.resumed_chunks, plan.chunk_count());
  EXPECT_EQ(sink.replayed, plan.chunk_count());
  EXPECT_EQ(sink.events, reference);
}

TEST(StreamingSweepTest, PartialResumeRecomputesOnlyTheRest) {
  const SweepPlan plan = two_scenario_plan();
  const std::vector<std::string> reference =
      run_and_record(plan, /*workers=*/2, /*window=*/0);

  // Build resume data from a fresh run, then forget all of beta and one
  // alpha point — as if the first run was killed mid-catalog.
  CheckpointData partial;
  {
    ThreadPool pool(2);
    RecordingSink sink;
    sink.attach(&plan);
    const std::string path =
        ::testing::TempDir() + "sweep_partial_resume.txt";
    CheckpointWriter writer(path, plan_fingerprint(plan), /*resume=*/false);
    StreamingSweepOptions options;
    options.checkpoint = &writer;
    run_streaming_sweep(plan, pool, options, sink);
    CheckpointLoad load = load_checkpoint(path, plan_fingerprint(plan));
    ASSERT_TRUE(load.ok()) << load.error;
    partial = load.chunks;
  }
  partial.erase({"alpha_fixture", 2});
  partial.erase({"beta_fixture", 0});
  partial.erase({"beta_fixture", 1});

  ThreadPool pool(4);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.resume = &partial;
  const SweepOutcome outcome = run_streaming_sweep(plan, pool, options, sink);
  EXPECT_EQ(outcome.resumed_chunks, 2u);
  EXPECT_EQ(outcome.computed_chunks, 3u);
  EXPECT_EQ(sink.events, reference);
}

TEST(StreamingSweepTest, ResumeDataForUnknownChunksThrows) {
  const SweepPlan plan = two_scenario_plan();
  CheckpointData foreign;
  foreign[{"no_such_scenario", 0}] = PointResult{};
  ThreadPool pool(2);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.resume = &foreign;
  EXPECT_THROW(run_streaming_sweep(plan, pool, options, sink),
               std::runtime_error);

  // A known scenario but out-of-grid point index is just as foreign.
  CheckpointData out_of_range;
  out_of_range[{"alpha_fixture", 99}] = PointResult{};
  options.resume = &out_of_range;
  EXPECT_THROW(run_streaming_sweep(plan, pool, options, sink),
               std::runtime_error);
}

TEST(StreamingSweepTest, FingerprintTracksResultAffectingParameters) {
  const SweepPlan base = two_scenario_plan();
  const uint64_t reference = plan_fingerprint(base);

  // Same plan, same fingerprint (stability).
  EXPECT_EQ(plan_fingerprint(two_scenario_plan()), reference);

  // Seeds, grid shape, point parameters, and names all change it.
  SweepPlan more_seeds = base;
  more_seeds.scenarios[0].seeds += 1;
  EXPECT_NE(plan_fingerprint(more_seeds), reference);

  SweepPlan renamed = base;
  renamed.scenarios[1].scenario.name = "renamed_fixture";
  EXPECT_NE(plan_fingerprint(renamed), reference);

  SweepPlan bigger_budget = base;
  bigger_budget.scenarios[0].scenario.grid[0].max_rounds += 100;
  EXPECT_NE(plan_fingerprint(bigger_budget), reference);

  // The engine mode is deliberately NOT mixed in: dense and sparse are
  // bit-identical by contract, so a dense checkpoint resumes sparse.
  SweepPlan dense = base;
  for (PlannedScenario& planned : dense.scenarios) {
    for (ExperimentPoint& point : planned.scenario.grid) {
      point.engine = EngineMode::kDense;
    }
  }
  EXPECT_EQ(plan_fingerprint(dense), reference);
}

TEST(StreamingSweepTest, MakePlanValidatesAndResolvesSeeds) {
  const Scenario scenario = small_scenario("seed_fixture", 2);
  const SweepPlan defaulted = make_plan({&scenario}, /*seeds_override=*/0);
  EXPECT_EQ(defaulted.scenarios[0].seeds, scenario.default_seeds);
  const SweepPlan overridden = make_plan({&scenario}, /*seeds_override=*/7);
  EXPECT_EQ(overridden.scenarios[0].seeds, 7);
  EXPECT_EQ(overridden.chunk_count(), 2u);

  Scenario invalid = scenario;
  invalid.grid.clear();
  EXPECT_THROW(make_plan({&invalid}, 0), std::invalid_argument);
  ThreadPool pool(2);
  EXPECT_THROW(run_scenario(invalid, /*seeds=*/4, pool),
               std::invalid_argument);
}

// --- run_scenario: the one grid runner (1 worker = the serial reference) --

/// A point no seed can synchronize: a 3-round budget at N = 1024.
ExperimentPoint timeout_point() {
  ExperimentPoint point = trapdoor_point(2);
  point.N = 1024;
  point.n = 8;
  point.max_rounds = 3;
  return point;
}

Scenario one_point_scenario(const ExperimentPoint& point) {
  return {.name = "one_point_fixture",
          .summary = "one point through run_scenario",
          .rationale = "exercises run_scenario in isolation",
          .grid = {point}};
}

/// Every point as its encoded chunk line, then the failures: equal vectors
/// mean bit-identical results.
std::vector<std::string> encoded(const Scenario& scenario,
                                 const ScenarioResult& result) {
  std::vector<std::string> lines;
  for (size_t pi = 0; pi < result.points.size(); ++pi) {
    lines.push_back(encode_chunk_line(scenario.name, pi, result.points[pi]));
  }
  lines.insert(lines.end(), result.failures.begin(), result.failures.end());
  return lines;
}

TEST(ParallelRunnerTest, BitIdenticalToSerialAcrossWorkerCounts) {
  Scenario scenario = small_scenario("workers_fixture", 3);
  for (ExperimentPoint& point : scenario.grid) point.extra_rounds = 64;
  ThreadPool serial_pool(1);
  const std::vector<std::string> serial =
      encoded(scenario, run_scenario(scenario, /*seeds=*/8, serial_pool));
  for (const int workers : {2, 4, 8, ThreadPool::default_workers()}) {
    ThreadPool pool(workers);
    EXPECT_EQ(encoded(scenario, run_scenario(scenario, /*seeds=*/8, pool)),
              serial)
        << "workers " << workers;
  }
}

TEST(ParallelRunnerTest, SharedPoolOverloadMatchesSerial) {
  const Scenario scenario = small_scenario("shared_pool_fixture", 2);
  ThreadPool serial_pool(1);
  const std::vector<std::string> serial =
      encoded(scenario, run_scenario(scenario, /*seeds=*/4, serial_pool));
  ThreadPool pool(4);
  // Re-using one pool across calls must not perturb results either.
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(encoded(scenario, run_scenario(scenario, /*seeds=*/4, pool)),
              serial)
        << "repeat " << repeat;
  }
}

TEST(ParallelRunnerTest, UnsyncedRunsSurviveParallelReplication) {
  ExperimentPoint point = timeout_point();
  point.n = 4;
  ThreadPool pool(4);
  const ScenarioResult result =
      run_scenario(one_point_scenario(point), /*seeds=*/3, pool);
  ASSERT_EQ(result.points.size(), 1u);
  const PointResult& r = result.points[0];
  EXPECT_EQ(r.runs, 3);
  EXPECT_EQ(r.synced_runs, 0);
  // Every run executed its whole 3-round budget.
  EXPECT_EQ(r.rounds_simulated, 3 * 3);
  // And the expectation check sees them: this scenario expects liveness.
  EXPECT_FALSE(result.ok());
}

TEST(ParallelSweepTest, TimeoutRunsAreCountedNotDropped) {
  const Scenario scenario = one_point_scenario(timeout_point());
  ThreadPool pool(2);
  const ScenarioResult result = run_scenario(scenario, /*seeds=*/5, pool);
  const PointResult& r = result.points.at(0);
  EXPECT_EQ(r.runs, 5);
  EXPECT_EQ(r.synced_runs, 0);
  EXPECT_EQ(r.timeout_runs, 5);
  // The summaries hold no samples — timeout_runs is the only trace of the
  // five runs, which is exactly why it must exist.
  EXPECT_EQ(r.rounds_to_live.count, 0u);
  EXPECT_EQ(r.max_node_latency.count, 0u);
  ThreadPool serial_pool(1);
  EXPECT_EQ(encoded(scenario, result),
            encoded(scenario, run_scenario(scenario, 5, serial_pool)));
}

TEST(ParallelSweepTest, MixedOutcomePointSplitsSyncedAndTimeout) {
  // A budget between the fast and slow seeds' needs: some runs sync, the
  // rest time out, and the counters must partition runs exactly.
  ExperimentPoint point = trapdoor_point(2);
  ThreadPool pool(2);
  const PointResult unbounded =
      run_scenario(one_point_scenario(point), /*seeds=*/6, pool).points.at(0);
  ASSERT_EQ(unbounded.synced_runs, 6);
  point.max_rounds = static_cast<RoundId>(unbounded.rounds_to_live.p50);
  const PointResult bounded =
      run_scenario(one_point_scenario(point), /*seeds=*/6, pool).points.at(0);
  EXPECT_EQ(bounded.synced_runs + bounded.timeout_runs, bounded.runs);
  EXPECT_GT(bounded.timeout_runs, 0);
}

/// Rejects the run it observes, so the first traced task throws.
class RejectingTrace final : public TraceSink {
 public:
  void on_round(const RoundTraceEvent& /*event*/) override {
    throw std::invalid_argument("trace sink rejected the run");
  }
};

TEST(ParallelRunnerTest, TaskExceptionPropagatesOutOfTheSweep) {
  const SweepPlan plan = two_scenario_plan();
  ThreadPool pool(2);
  RecordingSink sink;
  sink.attach(&plan);
  RejectingTrace trace;
  StreamingSweepOptions options;
  options.trace = &trace;
  try {
    run_streaming_sweep(plan, pool, options, sink);
    FAIL() << "the task error was swallowed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("trace sink rejected the run"),
              std::string::npos)
        << error.what();
  }
  // The failing chunk never reached the sink.
  EXPECT_TRUE(sink.events.empty());
}

}  // namespace
}  // namespace wsync
