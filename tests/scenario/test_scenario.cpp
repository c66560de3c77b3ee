#include "src/scenario/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "src/common/thread_pool.h"
#include "src/scenario/registry.h"
#include "src/service/streaming_sweep.h"

namespace wsync {
namespace {

Scenario minimal_scenario() {
  Scenario s;
  s.name = "unit_test_scenario";
  s.summary = "one small trapdoor point";
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 4;
  point.adversary = AdversaryKind::kRandomSubset;
  s.grid.push_back(point);
  return s;
}

TEST(ScenarioValidateTest, AcceptsMinimalScenario) {
  EXPECT_NO_THROW(validate(minimal_scenario()));
}

TEST(ScenarioValidateTest, RejectsBadNames) {
  Scenario s = minimal_scenario();
  s.name = "";
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.name = "Has-Caps";
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.name = "spaces here";
  EXPECT_THROW(validate(s), std::invalid_argument);
}

TEST(ScenarioValidateTest, RejectsEmptyGridAndSummary) {
  Scenario s = minimal_scenario();
  s.grid.clear();
  EXPECT_THROW(validate(s), std::invalid_argument);
  s = minimal_scenario();
  s.summary.clear();
  EXPECT_THROW(validate(s), std::invalid_argument);
  s = minimal_scenario();
  s.default_seeds = 0;
  EXPECT_THROW(validate(s), std::invalid_argument);
}

TEST(ScenarioValidateTest, RejectsModelViolations) {
  Scenario s = minimal_scenario();
  s.grid[0].t = s.grid[0].F;  // t < F required
  EXPECT_THROW(validate(s), std::invalid_argument);

  s = minimal_scenario();
  s.grid[0].n = 32;  // n > N
  EXPECT_THROW(validate(s), std::invalid_argument);

  s = minimal_scenario();
  s.grid[0].jam_count = s.grid[0].t + 1;
  EXPECT_THROW(validate(s), std::invalid_argument);

  s = minimal_scenario();
  s.grid[0].adversary = AdversaryKind::kDutyCycle;
  s.grid[0].duty_on = s.grid[0].duty_period + 1;
  EXPECT_THROW(validate(s), std::invalid_argument);
}

TEST(ScenarioValidateTest, RejectsBadWhitespaceParameters) {
  Scenario s = minimal_scenario();
  s.grid[0].adversary = AdversaryKind::kWhitespace;
  EXPECT_NO_THROW(validate(s));  // defaults: half the band, 1 shared

  s.grid[0].whitespace_available = s.grid[0].F + 1;
  EXPECT_THROW(validate(s), std::invalid_argument);

  s.grid[0].whitespace_available = 4;
  s.grid[0].whitespace_shared = 5;  // shared > available
  EXPECT_THROW(validate(s), std::invalid_argument);

  s.grid[0].whitespace_shared = 0;  // intersection could be empty
  EXPECT_THROW(validate(s), std::invalid_argument);

  s.grid[0].whitespace_shared = 4;  // shared == available: identical masks
  EXPECT_NO_THROW(validate(s));
}

TEST(ScenarioValidateTest, RejectsCrashWavesThatKillEveryone) {
  Scenario s = minimal_scenario();
  s.grid[0].crash_waves = {{10, 2}, {20, 2}};  // n = 4: nobody left
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.grid[0].crash_waves = {{10, 2}, {20, 1}};  // one survivor: fine
  EXPECT_NO_THROW(validate(s));
  s.grid[0].crash_waves = {{-1, 1}};
  EXPECT_THROW(validate(s), std::invalid_argument);
  s.grid[0].crash_waves = {{10, 0}};
  EXPECT_THROW(validate(s), std::invalid_argument);
}

PointResult clean_result(const ExperimentPoint& point, int runs) {
  PointResult r;
  r.point = point;
  r.runs = runs;
  r.synced_runs = runs;
  return r;
}

TEST(ScenarioExpectationsTest, CleanResultsPass) {
  const Scenario s = minimal_scenario();
  EXPECT_TRUE(check_expectations(s, {clean_result(s.grid[0], 3)}).empty());
}

TEST(ScenarioExpectationsTest, ResultCountMismatchFails) {
  const Scenario s = minimal_scenario();
  EXPECT_FALSE(check_expectations(s, {}).empty());
}

TEST(ScenarioExpectationsTest, CommitViolationsAlwaysFail) {
  Scenario s = minimal_scenario();
  s.expect_all_synced = false;
  s.expect_agreement_clean = false;
  s.expect_correctness_clean = false;
  PointResult r = clean_result(s.grid[0], 3);
  r.commit_violations = 1;
  EXPECT_EQ(check_expectations(s, {r}).size(), 1u);
}

TEST(ScenarioExpectationsTest, FlagsGateTheSoftProperties) {
  Scenario s = minimal_scenario();
  PointResult r = clean_result(s.grid[0], 4);
  r.synced_runs = 3;
  r.timeout_runs = 1;
  r.agreement_violations = 2;
  r.correctness_violations = 5;
  EXPECT_EQ(check_expectations(s, {r}).size(), 3u);
  s.expect_all_synced = false;
  EXPECT_EQ(check_expectations(s, {r}).size(), 2u);
  s.expect_agreement_clean = false;
  EXPECT_EQ(check_expectations(s, {r}).size(), 1u);
  s.expect_correctness_clean = false;
  EXPECT_TRUE(check_expectations(s, {r}).empty());
}

TEST(ScenarioExpectationsTest, EnergyBudgetViolationsAlwaysFail) {
  // An energy budget is a per-point opt-in; no expect_* flag can excuse a
  // violation — this is what makes `wsync_run` exit non-zero on it.
  Scenario s = minimal_scenario();
  s.grid[0].energy_budget = 100;
  s.expect_all_synced = false;
  s.expect_agreement_clean = false;
  s.expect_correctness_clean = false;
  PointResult r = clean_result(s.grid[0], 3);
  r.energy_budget_violations = 2;
  const std::vector<std::string> failures = check_expectations(s, {r});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("energy budget"), std::string::npos);

  // Without a budget the same counter is inert.
  s.grid[0].energy_budget = -1;
  r = clean_result(s.grid[0], 3);
  r.energy_budget_violations = 2;
  EXPECT_TRUE(check_expectations(s, {r}).empty());
}

TEST(ScenarioExpectationsTest, ImpossibleEnergyBudgetFailsARealRun) {
  // End-to-end: an awake-round cap of 0 cannot hold for an always-on
  // protocol, so the run must report (and wsync_run would exit 1 on) a
  // budget failure.
  Scenario s = minimal_scenario();
  s.grid[0].energy_budget = 0;
  ThreadPool pool(1);
  const ScenarioResult result = run_scenario(s, 1, pool);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.failures[0].find("energy budget"), std::string::npos);
  EXPECT_EQ(result.points[0].energy_budget_violations, 1);
}

TEST(ScenarioRunTest, RunScenarioProducesGridOrderedResults) {
  Scenario s = minimal_scenario();
  ExperimentPoint second = s.grid[0];
  second.t = 0;
  second.adversary = AdversaryKind::kNone;
  s.grid.push_back(second);
  ThreadPool pool(2);
  const ScenarioResult result = run_scenario(s, 2, pool);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].point.t, 2);
  EXPECT_EQ(result.points[1].point.t, 0);
  EXPECT_EQ(result.points[0].runs, 2);
  EXPECT_TRUE(result.ok()) << result.failures.front();
}

TEST(ScenarioRunTest, SeedsZeroMeansScenarioDefault) {
  Scenario s = minimal_scenario();
  s.default_seeds = 3;
  ThreadPool pool(2);
  const ScenarioResult result = run_scenario(s, 0, pool);
  EXPECT_EQ(result.points[0].runs, 3);
}

TEST(RegistryTest, CatalogHasAtLeastTwelveValidatedScenarios) {
  const auto& catalog = ScenarioRegistry::all();
  EXPECT_GE(catalog.size(), 12u);
  std::set<std::string> names;
  for (const Scenario& scenario : catalog) {
    EXPECT_NO_THROW(validate(scenario)) << scenario.name;
    EXPECT_FALSE(scenario.rationale.empty()) << scenario.name;
    EXPECT_TRUE(names.insert(scenario.name).second)
        << "duplicate name " << scenario.name;
  }
}

TEST(RegistryTest, CatalogCoversEveryAxisValue) {
  std::set<ProtocolKind> protocols;
  std::set<AdversaryKind> adversaries;
  std::set<ActivationKind> activations;
  bool any_crash_waves = false;
  bool any_energy_budget = false;
  bool whitespace_with_crash_waves = false;
  for (const Scenario& scenario : ScenarioRegistry::all()) {
    for (const ExperimentPoint& point : scenario.grid) {
      protocols.insert(point.protocol);
      adversaries.insert(point.adversary);
      activations.insert(point.activation);
      any_crash_waves |= !point.crash_waves.empty();
      any_energy_budget |= point.energy_budget >= 0;
      whitespace_with_crash_waves |=
          point.adversary == AdversaryKind::kWhitespace &&
          !point.crash_waves.empty();
    }
  }
  for (const ProtocolKind kind :
       {ProtocolKind::kTrapdoor, ProtocolKind::kTrapdoorFullBand,
        ProtocolKind::kGoodSamaritan, ProtocolKind::kWakeupBaseline,
        ProtocolKind::kAloha, ProtocolKind::kFaultTolerantTrapdoor,
        ProtocolKind::kDutyCycle, ProtocolKind::kEnergyOracle}) {
    EXPECT_TRUE(protocols.count(kind)) << to_string(kind);
  }
  for (const AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kFixedFirst,
        AdversaryKind::kRandomSubset, AdversaryKind::kSweep,
        AdversaryKind::kGilbertElliott, AdversaryKind::kGreedyDelivery,
        AdversaryKind::kGreedyListener, AdversaryKind::kDutyCycle,
        AdversaryKind::kWhitespace}) {
    EXPECT_TRUE(adversaries.count(kind)) << to_string(kind);
  }
  for (const ActivationKind kind :
       {ActivationKind::kSimultaneous, ActivationKind::kStaggeredUniform,
        ActivationKind::kSequential, ActivationKind::kTwoBatch,
        ActivationKind::kPoisson}) {
    EXPECT_TRUE(activations.count(kind)) << to_string(kind);
  }
  EXPECT_TRUE(any_crash_waves) << "no scenario exercises crash waves";
  EXPECT_TRUE(any_energy_budget) << "no scenario sets an energy budget";
  EXPECT_TRUE(whitespace_with_crash_waves)
      << "no scenario combines whitespace masks with crash waves";
}

TEST(RegistryTest, MatchingSelectsByRegex) {
  // Prefix search: the duty-cycle family, in catalog order.
  const auto duty = ScenarioRegistry::matching("^dutycycle_");
  ASSERT_EQ(duty.size(), 4u);
  EXPECT_EQ(duty[0]->name, "dutycycle_jamming");
  EXPECT_EQ(duty[1]->name, "dutycycle_whitespace");
  EXPECT_EQ(duty[2]->name, "dutycycle_crash_waves");
  EXPECT_EQ(duty[3]->name, "dutycycle_awake_scaling");

  // Unanchored search matches substrings; anchors make it exact.
  EXPECT_GE(ScenarioRegistry::matching("energy").size(), 3u);
  const auto exact = ScenarioRegistry::matching("^baseline_comparison$");
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0]->name, "baseline_comparison");

  // ".*" is everything, a miss is empty, a malformed pattern throws.
  EXPECT_EQ(ScenarioRegistry::matching(".*").size(),
            ScenarioRegistry::all().size());
  EXPECT_TRUE(ScenarioRegistry::matching("^no_such_scenario$").empty());
  EXPECT_THROW(ScenarioRegistry::matching("(["), std::invalid_argument);
}

TEST(RegistryTest, FindAndGet) {
  EXPECT_NE(ScenarioRegistry::find("baseline_comparison"), nullptr);
  EXPECT_EQ(ScenarioRegistry::find("no_such_scenario"), nullptr);
  EXPECT_EQ(ScenarioRegistry::get("baseline_comparison").name,
            "baseline_comparison");
  EXPECT_THROW(ScenarioRegistry::get("no_such_scenario"),
               std::invalid_argument);
  EXPECT_EQ(ScenarioRegistry::names().size(), ScenarioRegistry::all().size());
}

TEST(RegistryTest, BenchScenariosExist) {
  // The migrated benches resolve these by name; renaming them breaks the
  // single-source-of-truth contract.
  for (const char* name :
       {"thm10_trapdoor_n_scaling", "thm18_samaritan_adaptive",
        "baseline_comparison", "energy_vs_contention"}) {
    EXPECT_NE(ScenarioRegistry::find(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace wsync
