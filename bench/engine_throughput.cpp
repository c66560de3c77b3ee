// E13 — engine performance: node-rounds per second of the radio simulator
// under each protocol, so the scaling experiments' costs are understood and
// regressions in the hot path are visible.
//
// Self-timed on the telemetry Stopwatch (adaptive iteration count:
// each case runs batches until it has accumulated a stable wall-clock
// sample), so the bench always builds — no external benchmark library.
// Given an output path, writes BENCH_engine_throughput.json. Timing numbers
// are wall-clock and machine-dependent; they are archived for trend
// watching, never diffed.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/adversary/basic.h"
#include "src/baseline/aloha.h"
#include "src/common/rng.h"
#include "src/radio/engine.h"
#include "src/samaritan/good_samaritan.h"
#include "src/stats/table.h"
#include "src/telemetry/stopwatch.h"
#include "src/trapdoor/trapdoor.h"

namespace wsync {
namespace {

constexpr double kMinSampleSeconds = 0.2;
constexpr int kBatch = 64;

std::unique_ptr<Simulation> make_sim(ProtocolFactory factory, int F, int t,
                                     int n) {
  SimConfig config;
  config.F = F;
  config.t = t;
  config.N = 2 * n;
  config.n = n;
  config.seed = 42;
  return std::make_unique<Simulation>(
      config, std::move(factory), std::make_unique<RandomSubsetAdversary>(t),
      std::make_unique<SimultaneousActivation>(n));
}

struct Measurement {
  std::string name;
  int n = 0;             ///< nodes per iteration (0 = not node-scaled)
  int64_t iterations = 0;
  double wall_ms = 0;
  double iters_per_sec = 0;
  double node_rounds_per_sec = 0;
};

/// Runs `body` in batches until the accumulated sample is long enough to
/// trust, then converts to rates. One warm-up call precedes timing.
template <typename Body>
Measurement run_case(const std::string& name, int n, Body&& body) {
  Measurement m;
  m.name = name;
  m.n = n;
  body();  // warm-up: first-touch allocations stay out of the sample
  const telemetry::Stopwatch watch;
  while (watch.elapsed_seconds() < kMinSampleSeconds) {
    for (int i = 0; i < kBatch; ++i) body();
    m.iterations += kBatch;
  }
  const double elapsed = watch.elapsed_seconds();
  m.wall_ms = elapsed * 1e3;
  m.iters_per_sec =
      elapsed > 0 ? static_cast<double>(m.iterations) / elapsed : 0;
  m.node_rounds_per_sec = m.iters_per_sec * n;
  return m;
}

Measurement step_case(const std::string& name, ProtocolFactory factory,
                      int n) {
  auto sim = make_sim(std::move(factory), 16, 4, n);
  return run_case(name, n, [&sim] { bench::keep(sim->step()); });
}

}  // namespace
}  // namespace wsync

int main(int argc, char** argv) {
  using namespace wsync;
  bench::section(
      "Engine throughput — node-rounds per second of the round loop under "
      "each protocol (self-timed)");

  std::vector<Measurement> results;
  for (const int n : {16, 64, 256}) {
    results.push_back(
        step_case("trapdoor_step", TrapdoorProtocol::factory(), n));
  }
  for (const int n : {16, 64, 256}) {
    results.push_back(step_case("good_samaritan_step",
                                GoodSamaritanProtocol::factory(), n));
  }
  results.push_back(step_case("aloha_step", AlohaSync::factory(), 64));

  // End-to-end cost of one complete synchronization at a typical bench
  // configuration (iterations are whole runs, so node_rounds/s is 0).
  results.push_back(run_case("full_trapdoor_run", 0, [] {
    auto sim = make_sim(TrapdoorProtocol::factory(), 16, 8, 16);
    bench::keep(sim->run_until_synced(1000000));
  }));

  {
    Rng rng(1);
    results.push_back(
        run_case("rng_draw", 0, [&rng] { bench::keep(rng.next_below(16)); }));
  }

  Table table({"case", "n", "iterations", "wall ms", "iters/s",
               "node_rounds/s"});
  for (const Measurement& m : results) {
    table.row()
        .cell(m.name)
        .cell(static_cast<int64_t>(m.n))
        .cell(m.iterations)
        .cell(m.wall_ms, 1)
        .cell(m.iters_per_sec, 1)
        .cell(m.node_rounds_per_sec, 1);
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: step cases scale sub-linearly in n (per-round work is "
      "O(F + awake)),\nand rng_draw bounds the per-draw cost every hot path "
      "pays.");

  bool ok = true;
  for (const Measurement& m : results) ok &= m.iters_per_sec > 0;

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "engine_throughput: cannot write '%s'\n",
                   argv[1]);
      return 2;
    }
    out << "{\n  \"bench\": \"engine_throughput\",\n  \"ok\": "
        << (ok ? "true" : "false") << ",\n  \"cases\":\n" << table.json(2)
        << "\n}\n";
    std::printf("\nwrote %s\n", argv[1]);
  }
  return ok ? 0 : 1;
}
