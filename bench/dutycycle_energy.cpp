// E-BKO-2 — the duty-cycle dividend: radio use and time-to-sync across
// {trapdoor, good_samaritan, duty_cycle, energy_oracle} on the same (N, t)
// grid.
//
// The duty/trapdoor points come verbatim from the catalog's
// dutycycle_awake_scaling scenario (budgets included); the samaritan and
// oracle comparison points are derived from the duty points by swapping the
// protocol (no budget — they are the always-on/naive references, not gated
// workloads).
//
// Expected shape: the always-on protocols pay awake ≡ rounds-to-liveness;
// the oracle trims the MEAN (adopters hard-sleep) but not the MAX (its
// leader burns every round); only the duty-cycled synchronizer pulls the
// max down — by at least 5x against the Trapdoor on every (N, t) point,
// which this bench gates (non-zero exit on a miss, like the scenario's
// energy budgets). Given an output path, writes a JSON summary of
// deterministic aggregates for CI to archive.
#include <cstdio>

#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  using namespace wsync;
  bench::section(
      "Duty-cycle dividend — awake-rounds and time-to-sync, duty-cycled vs "
      "always-on (cf. Bradonjic-Kohler-Ostrovsky)");

  const Scenario& scaling = ScenarioRegistry::get("dutycycle_awake_scaling");
  // Scenario grid order is (duty, trapdoor) pairs per N; derive the
  // samaritan/oracle points from each duty point.
  std::vector<ExperimentPoint> grid;
  for (const ExperimentPoint& point : scaling.grid) {
    grid.push_back(point);
    if (point.protocol == ProtocolKind::kDutyCycle) {
      for (const ProtocolKind extra :
           {ProtocolKind::kGoodSamaritan, ProtocolKind::kEnergyOracle}) {
        ExperimentPoint derived = point;
        derived.protocol = extra;
        derived.energy_budget = -1;  // reference point, not a gated workload
        grid.push_back(derived);
      }
    }
  }
  const int seeds = scaling.default_seeds;
  ThreadPool pool;
  const std::vector<PointResult> results =
      run_scenario({.name = "dutycycle_energy_comparison",
                    .summary = "duty/trapdoor pairs plus derived references",
                    .rationale = "the duty-cycle dividend vs always-on",
                    .grid = grid},
                   seeds, pool)
          .points;

  Table table({"protocol", "N", "runs", "synced", "p50 rounds", "awake p50",
               "awake max", "mean awake p50", "awake frac", "budget",
               "violations"});
  for (const PointResult& result : results) {
    const ExperimentPoint& p = result.point;
    table.row()
        .cell(std::string(to_string(p.protocol)))
        .cell(p.N)
        .cell(static_cast<int64_t>(result.runs))
        .cell(static_cast<int64_t>(result.synced_runs))
        .cell(result.synced_runs > 0 ? result.rounds_to_live.p50 : -1.0, 0)
        .cell(result.max_awake_rounds.p50, 0)
        .cell(result.max_awake_rounds.max, 0)
        .cell(result.mean_awake_rounds.p50, 0)
        .cell(result.awake_fraction.p50, 4)
        .cell(p.energy_budget)
        .cell(static_cast<int64_t>(result.energy_budget_violations));
  }
  std::printf("%s", table.markdown().c_str());

  // Gate 1: the scenario's own expectations (liveness + tight duty caps)
  // on the catalog-owned points.
  std::vector<PointResult> scenario_results;
  for (const PointResult& result : results) {
    if (result.point.protocol == ProtocolKind::kDutyCycle ||
        result.point.protocol == ProtocolKind::kTrapdoor) {
      scenario_results.push_back(result);
    }
  }
  std::vector<std::string> failures =
      check_expectations(scaling, scenario_results);

  // Gate 2: the 5x max-awake advantage over the Trapdoor per (N, t).
  std::string ratio_json = "  \"duty_vs_trapdoor_awake_ratio\": [";
  bool first_ratio = true;
  for (size_t i = 0; i + 1 < scenario_results.size(); i += 2) {
    const PointResult& duty = scenario_results[i];
    const PointResult& trapdoor = scenario_results[i + 1];
    // The scenario grid is (duty, trapdoor) pairs per N; fail loudly on a
    // registry reorder rather than misattribute the ratio.
    if (duty.point.protocol != ProtocolKind::kDutyCycle ||
        trapdoor.point.protocol != ProtocolKind::kTrapdoor ||
        duty.point.N != trapdoor.point.N) {
      failures.push_back(
          "dutycycle_awake_scaling grid is no longer (duty, trapdoor) "
          "pairs per N; update the ratio gate pairing");
      break;
    }
    const double duty_awake = duty.max_awake_rounds.p50;
    const double ratio =
        duty_awake > 0 ? trapdoor.max_awake_rounds.p50 / duty_awake : 0.0;
    std::printf("N %6lld: duty awake p50 %6.0f vs trapdoor %6.0f -> %.1fx\n",
                static_cast<long long>(duty.point.N), duty_awake,
                trapdoor.max_awake_rounds.p50, ratio);
    if (ratio < 5.0) {
      failures.push_back(
          "duty-cycle awake advantage below 5x at N = " +
          std::to_string(duty.point.N) + " (got " + std::to_string(ratio) +
          "x)");
    }
    ratio_json += first_ratio ? "\n" : ",\n";
    first_ratio = false;
    ratio_json += "    {\"N\": " + std::to_string(duty.point.N) +
                  ", \"ratio\": " + std::to_string(ratio) + "}";
  }
  ratio_json += "\n  ]";

  for (const std::string& failure : failures) {
    std::printf("EXPECTATION FAILED: %s\n", failure.c_str());
  }

  bench::note(
      "\nShape check: trapdoor/samaritan awake p50 equals their p50 rounds "
      "(always-on), the\noracle's mean drops but its max does not (the "
      "leader never sleeps), and the duty\ncycle holds max awake >= 5x "
      "under the trapdoor with zero budget violations.");

  if (argc > 1) {
    // Deterministic aggregates only, so summaries diff clean across runs
    // and worker counts (same contract as wsync_run --json).
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "dutycycle_energy: cannot write '%s'\n", argv[1]);
      return 2;
    }
    out << "{\n  \"scenario\": \"" << scaling.name << "\",\n"
        << "  \"seeds\": " << seeds << ",\n"
        << "  \"ok\": " << (failures.empty() ? "true" : "false") << ",\n"
        << ratio_json << ",\n"
        << "  \"points\":\n"
        << table.json(2) << "\n}\n";
    std::printf("\nwrote %s\n", argv[1]);
  }
  return failures.empty() ? 0 : 1;
}
