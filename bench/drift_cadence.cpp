// Hold-the-sync frontier — max held offset and resync spend vs cadence R
// at 10/50/200 ppm drift, straight off the catalog's drift_cadence_sweep
// scenario (3 cadence points per ppm level, the tightest one gated).
//
// Expected shape: at a fixed horizon the held offset is dominated by
// wake-up residue (a straggler that adopted a rival numbering before going
// dormant reads tens off until a beacon recaptures it), so max_offset moves
// little across ppm — what the cadence buys is the resync rate. The bench
// gates (non-zero exit, like the scenario's own run):
//   * the scenario expectations, which include the offset bound on every
//     R = 4 point (offset_violations must be zero there);
//   * cadence monotonicity per ppm level: the R = 4 points must correct
//     skew strictly more often than the R = 64 points — a cadence that
//     does not buy corrections means the beacon path is dead.
// Given an output path, writes a JSON summary of deterministic aggregates
// for CI to archive (BENCH_drift_cadence.json).
#include <cstdio>

#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/registry.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  using namespace wsync;
  bench::section(
      "Drift-cadence frontier — held offset and resync spend vs cadence R "
      "(hold-the-sync maintenance)");

  const Scenario& sweep = ScenarioRegistry::get("drift_cadence_sweep");
  const int seeds = sweep.default_seeds;
  ThreadPool pool;
  ScenarioResult run = run_scenario(sweep, seeds, pool);
  const std::vector<PointResult>& results = run.points;

  Table table({"ppm", "R", "runs", "synced", "maint rounds", "offset bound",
               "max offset", "offset viol", "resyncs"});
  // (ppm, R) -> resync_count, for the per-ppm monotonicity gate below.
  std::map<std::pair<int, int>, int64_t> resyncs;
  std::string cadence_json = "  \"cadence\": [";
  bool first = true;
  for (const PointResult& result : results) {
    const ExperimentPoint& p = result.point;
    table.row()
        .cell(static_cast<int64_t>(p.drift_ppm))
        .cell(static_cast<int64_t>(p.resync_awake_slots))
        .cell(static_cast<int64_t>(result.runs))
        .cell(static_cast<int64_t>(result.synced_runs))
        .cell(static_cast<int64_t>(p.maintenance_rounds))
        .cell(p.offset_bound)
        .cell(result.max_offset.max, 0)
        .cell(result.offset_violations)
        .cell(result.resync_count);
    resyncs[{p.drift_ppm, p.resync_awake_slots}] = result.resync_count;
    cadence_json += first ? "\n" : ",\n";
    first = false;
    cadence_json += "    {\"ppm\": " + std::to_string(p.drift_ppm) +
                    ", \"R\": " + std::to_string(p.resync_awake_slots) +
                    ", \"max_offset\": " +
                    std::to_string(static_cast<int64_t>(result.max_offset.max)) +
                    ", \"offset_violations\": " +
                    std::to_string(result.offset_violations) +
                    ", \"resyncs\": " + std::to_string(result.resync_count) +
                    "}";
  }
  cadence_json += "\n  ]";
  std::printf("%s", table.markdown().c_str());

  // Gate 1: the scenario's own expectations (liveness + the R = 4 offset
  // bounds) on the catalog-owned points.
  std::vector<std::string>& failures = run.failures;

  // Gate 2: per ppm level, the tight cadence must out-correct the loose one.
  for (const int ppm : {10, 50, 200}) {
    const auto tight = resyncs.find({ppm, 4});
    const auto loose = resyncs.find({ppm, 64});
    if (tight == resyncs.end() || loose == resyncs.end()) {
      failures.push_back("drift_cadence_sweep no longer carries the (R=4, "
                         "R=64) pair at " +
                         std::to_string(ppm) + " ppm; update the gate");
      continue;
    }
    std::printf("ppm %3d: resyncs %6lld @ R=4 vs %6lld @ R=64\n", ppm,
                static_cast<long long>(tight->second),
                static_cast<long long>(loose->second));
    if (tight->second <= loose->second) {
      failures.push_back(
          "tight cadence did not out-correct the loose one at " +
          std::to_string(ppm) + " ppm (R=4: " +
          std::to_string(tight->second) + ", R=64: " +
          std::to_string(loose->second) + ")");
    }
  }

  for (const std::string& failure : failures) {
    std::printf("EXPECTATION FAILED: %s\n", failure.c_str());
  }

  bench::note(
      "\nShape check: max_offset is near-flat across ppm (wake-up residue "
      "dominates at this\nhorizon) while resyncs scale with cadence; every "
      "R=4 point holds its offset bound.");

  if (argc > 1) {
    // Deterministic aggregates only, so summaries diff clean across runs
    // and worker counts (same contract as wsync_run --json).
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "drift_cadence: cannot write '%s'\n", argv[1]);
      return 2;
    }
    out << "{\n  \"scenario\": \"" << sweep.name << "\",\n"
        << "  \"seeds\": " << seeds << ",\n"
        << "  \"ok\": " << (failures.empty() ? "true" : "false") << ",\n"
        << cadence_json << ",\n"
        << "  \"points\":\n"
        << table.json(2) << "\n}\n";
    std::printf("\nwrote %s\n", argv[1]);
  }
  return failures.empty() ? 0 : 1;
}
