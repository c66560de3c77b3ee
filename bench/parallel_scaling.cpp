// E15 — Grid runner scaling: run_scenario wall-clock on the Theorem 10
// workload (Trapdoor, staggered activation, random-subset jammer),
// replicated across seeds at 1/2/4/8 workers; the 1-worker run is the
// serial reference.
//
// Besides the stdout table, writes BENCH_parallel_scaling.json (path
// overridable via argv[1]) so CI can track the perf trajectory across
// commits. The bench also re-verifies the determinism contract: every
// timed result must be bit-identical (compared through encode_chunk_line,
// so every double by bit pattern) to the serial reference.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/checkpoint.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"

namespace wsync {
namespace {

bool identical(const Scenario& scenario, const ScenarioResult& a,
               const ScenarioResult& b) {
  if (a.points.size() != b.points.size() || a.failures != b.failures) {
    return false;
  }
  for (size_t i = 0; i < a.points.size(); ++i) {
    if (encode_chunk_line(scenario.name, i, a.points[i]) !=
        encode_chunk_line(scenario.name, i, b.points[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace wsync

int main(int argc, char** argv) {
  using namespace wsync;
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_parallel_scaling.json";

  // The Theorem 10 workload at a size where one serial pass takes seconds:
  // the same shape thm10_trapdoor_scaling_n sweeps.
  ExperimentPoint point;
  point.F = 16;
  point.t = 8;
  point.N = 4096;
  point.n = 24;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 32;
  const int seed_count = 32;

  bench::section(
      "Grid runner scaling — Theorem 10 workload, run_scenario at 1 (serial) "
      "to 8 workers");
  std::printf("Trapdoor, F = %d, t = %d, N = %lld, n = %d, %d seeds; "
              "hardware concurrency = %d\n\n",
              point.F, point.t, static_cast<long long>(point.N), point.n,
              seed_count, ThreadPool::default_workers());

  const Scenario scenario{.name = "parallel_scaling",
                          .summary = "Theorem 10 workload at one point",
                          .rationale = "runner scaling, worker-count identity",
                          .grid = {point}};
  // Pool construction is part of no timing.
  ScenarioResult serial;
  ThreadPool serial_pool(1);
  const double serial_ms = bench::time_ms(
      [&] { serial = run_scenario(scenario, seed_count, serial_pool); });

  struct Measurement {
    int workers;
    double ms;
    bool identical;
  };
  std::vector<Measurement> measurements;
  for (const int workers : {1, 2, 4, 8}) {
    ThreadPool pool(workers);
    ScenarioResult result;
    const double ms = bench::time_ms(
        [&] { result = run_scenario(scenario, seed_count, pool); });
    measurements.push_back(
        {workers, ms, identical(scenario, serial, result)});
  }

  Table table({"runner", "workers", "wall ms", "speedup vs serial",
               "bit-identical"});
  table.row()
      .cell("serial")
      .cell(int64_t{1})
      .cell(serial_ms, 1)
      .cell(1.0, 2)
      .cell("-");
  for (const Measurement& m : measurements) {
    table.row()
        .cell("parallel")
        .cell(static_cast<int64_t>(m.workers))
        .cell(m.ms, 1)
        .cell(serial_ms / m.ms, 2)
        .cell(m.identical ? "yes" : "NO");
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: speedup tracks min(workers, cores) — runs are "
      "embarrassingly\nparallel (each owns its forked Rng streams), so the "
      "only losses are pool\noverhead and load imbalance on the slowest "
      "seed. The bit-identical column\nmust read 'yes' everywhere: "
      "worker count changes wall-clock, never results.");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"parallel_scaling\",\n"
               "  \"workload\": {\"protocol\": \"trapdoor\", \"F\": %d, "
               "\"t\": %d, \"N\": %lld, \"n\": %d, \"seeds\": %d},\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"serial_ms\": %.3f,\n"
               "  \"parallel\": [",
               point.F, point.t, static_cast<long long>(point.N), point.n,
               seed_count, ThreadPool::default_workers(), serial_ms);
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "%s\n    {\"workers\": %d, \"ms\": %.3f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}",
                 i == 0 ? "" : ",", m.workers, m.ms, serial_ms / m.ms,
                 m.identical ? "true" : "false");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  bool all_identical = true;
  for (const Measurement& m : measurements) all_identical &= m.identical;
  return all_identical ? 0 : 1;
}
