// The benchmark's workloads. Each is driven as setup -> run -> check ->
// teardown by the loop in main.cpp, which times setup and run from
// outside; check() reads outputs after the clock has stopped.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/cpp/spans.h"

namespace perfbench {

/// What a checked iteration produced.
struct Outcome {
  int64_t rounds = 0;             ///< simulated rounds (deterministic)
  int64_t awake_node_rounds = 0;  ///< ledger broadcast + listen node-rounds
  uint64_t digest = 0;            ///< FNV-1a over the deterministic outputs
  /// Deterministic per-layer counts (radio.*, sync.runs, ...).
  std::map<std::string, double> counts;
  /// Output checks that failed; empty when the iteration is correct.
  std::vector<std::string> failures;
};

/// The traced run's state: spans plus the per-layer values a workload can
/// only read from inside its own code.
struct Tracer {
  SpanRecorder spans;
  int64_t root = -1;   ///< the workload span
  int64_t setup = -1;  ///< the setup span, parent of set-up calls
  std::map<std::string, double> layers;
  /// Untraced wall seconds of the same driving code, when the workload
  /// measures its own baseline (catalog_sweep re-drives its tasks).
  double plain_wall_s = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// False when the workload derives its inputs internally and ignores the
  /// seed argument.
  virtual bool uses_seed() const = 0;
  /// Threads the timed run keeps busy; the host probe runs as many.
  virtual int busy_threads() const = 0;
  /// Builds everything run() needs (timed as setup_s). A non-null tracer
  /// selects the decorated, span-recording variant.
  virtual void setup(uint64_t seed, Tracer* tracer) = 0;
  /// The timed body. Traced runs open a span named "iteration" whose
  /// duration is the traced wall time.
  virtual void run(Tracer* tracer) = 0;
  /// Output checks and digest, after the clock stopped.
  virtual Outcome check() = 0;
  virtual void teardown() = 0;
};

std::vector<std::string> workload_names();

/// Nullptr for an unknown name. `out_dir` receives the checkpoint file.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir);

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
