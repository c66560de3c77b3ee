// E14 — Baseline comparison: the Trapdoor protocol vs the wakeup-style
// doubling baseline (full band, no long final epoch) and the ALOHA
// strawman, across disruption levels. Two axes: time-to-liveness and
// safety (multi-leader elections).
//
// The grid comes from the scenario catalog (baseline_comparison): for each
// t in {0, 4, 8, 12}, one point per protocol under the random-subset
// jammer with staggered activation.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/scenario/registry.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"

int main() {
  using namespace wsync;
  const Scenario& scenario = ScenarioRegistry::get("baseline_comparison");
  const int runs = 60;  // more replication than the catalog default: the
                        // multi-leader rates are the measurement here
  const ExperimentPoint& first = scenario.grid.front();
  bench::section("Baseline comparison — Trapdoor vs wakeup-style vs ALOHA");
  std::printf("F = %d, N = %lld, n = %d, staggered activation over %lld "
              "rounds, random-subset jammer, %d seeds per row\n\n",
              first.F, static_cast<long long>(first.N), first.n,
              static_cast<long long>(first.activation_window), runs);
  Table table({"t", "protocol", "synced runs", "median rounds",
               "multi-leader runs", "agreement violations"});
  ThreadPool pool;
  for (const PointResult& r : run_scenario(scenario, runs, pool).points) {
    table.row()
        .cell(static_cast<int64_t>(r.point.t))
        .cell(std::string(to_string(r.point.protocol)))
        .cell(static_cast<int64_t>(r.synced_runs))
        .cell(r.synced_runs > 0 ? r.rounds_to_live.p50 : -1.0, 0)
        .cell(static_cast<int64_t>(r.multi_leader_runs))
        .cell(r.agreement_violations);
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: with a clean spectrum everything synchronizes and "
      "the simple\nbaselines are competitive on speed; as t grows the "
      "baselines elect multiple\nleaders / violate agreement while the "
      "Trapdoor protocol stays safe at a\nmoderate round cost — the "
      "paper's core value proposition.\n\nNote: the paper's agreement "
      "guarantee is 'with high probability' = 1 - 1/N.\nAt N = 64 an "
      "occasional multi-leader trapdoor run (~1 in 64) is within the\n"
      "guarantee; the baselines fail in nearly EVERY disrupted run.");
  return 0;
}
