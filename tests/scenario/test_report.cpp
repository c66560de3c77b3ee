// The scenario report layer behind `wsync_run --csv` / --json: a pinned
// header, deterministic rows across worker counts (the contract CI enforces
// end to end by diffing wsync_run outputs between --workers 1 and 4), and
// the energy columns that make budget gating visible in exports.
#include "src/scenario/report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/scenario/registry.h"
#include "src/service/streaming_sweep.h"

namespace wsync {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.name = "report_test_scenario";
  s.summary = "one trapdoor point with an energy budget";
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 4;
  point.adversary = AdversaryKind::kRandomSubset;
  point.energy_budget = 100000;  // generous: never violated here
  s.grid.push_back(point);
  return s;
}

TEST(ReportTest, ColumnSchemaIsPinned) {
  // CSV/JSON consumers key on these names; changing them is a breaking
  // change to the export format and must be deliberate.
  const std::vector<std::string> expected = {
      "protocol",      "adversary",      "activation",   "F",
      "t",             "t_actual",       "N",            "n",
      "runs",          "synced",         "timeout",      "p50_rounds",
      "p90_rounds",    "agreement_viol", "max_leaders",  "awake_p50",
      "awake_max",     "awake_frac",     "bcast_rounds", "listen_rounds",
      "energy_budget", "energy_viol",    "drift_ppm",    "max_offset",
      "offset_viol",   "resyncs"};
  EXPECT_EQ(result_columns(), expected);
}

TEST(ReportTest, CsvHeaderIsScenarioPlusResultColumns) {
  const CsvReport report;
  const std::string csv = report.str();
  EXPECT_EQ(csv,
            "scenario,protocol,adversary,activation,F,t,t_actual,N,n,runs,"
            "synced,timeout,p50_rounds,p90_rounds,agreement_viol,"
            "max_leaders,awake_p50,awake_max,awake_frac,bcast_rounds,"
            "listen_rounds,energy_budget,energy_viol,drift_ppm,max_offset,"
            "offset_viol,resyncs\n");
}

TEST(ReportTest, RowsAreIdenticalAcrossWorkerCounts) {
  const Scenario s = small_scenario();
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const ScenarioResult one = run_scenario(s, /*seeds=*/2, pool1);
  const ScenarioResult four = run_scenario(s, /*seeds=*/2, pool4);

  CsvReport csv_one;
  csv_one.add(s, one.points);
  CsvReport csv_four;
  csv_four.add(s, four.points);
  EXPECT_EQ(csv_one.str(), csv_four.str());

  const Table table_one = results_table(s, one.points);
  const Table table_four = results_table(s, four.points);
  EXPECT_EQ(table_one.json(), table_four.json());
  EXPECT_EQ(table_one.markdown(), table_four.markdown());
}

TEST(ReportTest, MaintenanceRowsAreByteIdenticalAcrossWorkerCounts) {
  // The drift columns ride the same determinism contract as everything
  // else: a maintenance run sharded across 4 workers must export the very
  // bytes the single-worker run exports.
  Scenario s;
  s.name = "report_maintenance_scenario";
  s.summary = "drift + resync maintenance point for the worker wall";
  s.expect_agreement_clean = false;
  s.expect_correctness_clean = false;
  ExperimentPoint point;
  point.F = 16;
  point.t = 4;
  point.N = 64;
  point.n = 6;
  point.protocol = ProtocolKind::kDutyCycle;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 24;
  point.drift_ppm = 120;
  point.resync_awake_slots = 8;
  point.maintenance_rounds = 1500;
  s.grid.push_back(point);

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const ScenarioResult one = run_scenario(s, /*seeds=*/3, pool1);
  const ScenarioResult four = run_scenario(s, /*seeds=*/3, pool4);
  CsvReport csv_one;
  csv_one.add(s, one.points);
  CsvReport csv_four;
  csv_four.add(s, four.points);
  EXPECT_EQ(csv_one.str(), csv_four.str());
  EXPECT_EQ(results_table(s, one.points).json(),
            results_table(s, four.points).json());
  // And the drift columns carry real signal, not defaults: the cadence
  // corrected skew at least once across the maintenance windows.
  ASSERT_EQ(one.points.size(), 1u);
  EXPECT_GT(one.points[0].resync_count, 0);
  EXPECT_EQ(one.points[0].point.drift_ppm, 120);
}

TEST(ReportTest, EnergyColumnsSurfaceTheLedger) {
  const Scenario s = small_scenario();
  ThreadPool pool2(2);
  const ScenarioResult result = run_scenario(s, /*seeds=*/2, pool2);
  const Table table = results_table(s, result.points);
  const std::string csv = [&] {
    CsvReport report;
    report.add(s, result.points);
    return report.str();
  }();
  // The budget is generous, so the run passes and the violation column is
  // zero while the awake/broadcast/listen columns carry real totals.
  EXPECT_TRUE(result.ok());
  EXPECT_NE(csv.find("report_test_scenario,trapdoor,random_subset"),
            std::string::npos);
  // drift_ppm 0, max_offset 0, offset_viol 0, resyncs 0: no maintenance
  // phase on this point, so the drift tail is all zeros.
  EXPECT_NE(csv.find(",100000,0,0,0,0,0\n"), std::string::npos)
      << "energy_budget/energy_viol/drift tail missing from: " << csv;
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(ReportTest, WholeCatalogRendersCompleteRows) {
  // Every registry scenario must be renderable without tripping the
  // incomplete-row checks (grid size == result size is the caller's
  // contract; cells-per-row is the report's).
  for (const Scenario& scenario : ScenarioRegistry::all()) {
    const std::vector<PointResult> empty_results(
        scenario.grid.size(), PointResult{});
    std::vector<PointResult> results = empty_results;
    for (size_t i = 0; i < results.size(); ++i) {
      results[i].point = scenario.grid[i];
    }
    const Table table = results_table(scenario, results);
    EXPECT_EQ(table.num_rows(), scenario.grid.size()) << scenario.name;
    EXPECT_NO_THROW(table.csv()) << scenario.name;
    EXPECT_NO_THROW(table.json()) << scenario.name;
  }
}

}  // namespace
}  // namespace wsync
