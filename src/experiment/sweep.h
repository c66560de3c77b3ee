// Turns ExperimentPoints into runnable specs, replicates across seeds, and
// aggregates the measurements every bench table needs.
#ifndef WSYNC_EXPERIMENT_SWEEP_H_
#define WSYNC_EXPERIMENT_SWEEP_H_

#include <cstdint>
#include <vector>

#include "src/experiment/spec.h"
#include "src/stats/summary.h"
#include "src/sync/runner.h"

namespace wsync {

/// Builds the RunSpec for a point (factories resolved from the enums).
RunSpec make_run_spec(const ExperimentPoint& point);

/// kWhitespace: channels available per node after defaulting (a negative
/// whitespace_available means half the band, but at least one channel).
int effective_whitespace_available(const ExperimentPoint& point);

/// Evenly spaced deterministic seeds for replication.
std::vector<uint64_t> make_seeds(int count, uint64_t base = 0x5EED);

/// Aggregate over seeds of one experiment point.
struct PointResult {
  ExperimentPoint point;
  int runs = 0;
  int synced_runs = 0;          ///< runs that reached liveness in budget
  /// Runs that exhausted max_rounds without liveness. These runs are
  /// excluded from rounds_to_live/max_node_latency (there is no finite
  /// measurement to record), so always check this counter before reading
  /// the summaries — a point where half the runs timed out is not "fast".
  int timeout_runs = 0;
  Summary rounds_to_live;       ///< engine rounds until liveness (synced runs)
  Summary max_node_latency;     ///< per-run max per-node sync latency
  int64_t agreement_violations = 0;  ///< summed over runs
  int64_t commit_violations = 0;
  int64_t correctness_violations = 0;
  int max_leaders = 0;          ///< max simultaneous leaders over all runs
  int multi_leader_runs = 0;    ///< runs where >= 2 leaders coexisted
  double max_broadcast_weight = 0.0;

  // --- radio use (energy) over ALL runs, timeouts included ---------------
  Summary max_awake_rounds;     ///< per-run max over nodes of awake rounds
  Summary mean_awake_rounds;    ///< per-run mean over nodes of awake rounds
  /// Per-run awake share of post-activation node-rounds (RunEnergy::
  /// awake_fraction): 1.0 for always-on protocols, the duty fraction for
  /// protocols that sleep.
  Summary awake_fraction;
  int64_t broadcast_rounds = 0; ///< node-rounds spent broadcasting, summed
  int64_t listen_rounds = 0;    ///< node-rounds spent listening, summed
  int64_t sleep_rounds = 0;     ///< node-rounds spent asleep, summed
  /// Runs whose max awake-rounds exceeded point.energy_budget (only counted
  /// when the point sets a budget; check_expectations gates on this).
  int energy_budget_violations = 0;

  // --- resync maintenance (hold-the-sync), all runs ------------------------
  Summary max_offset;             ///< per-run max pairwise output offset
  int64_t offset_violations = 0;  ///< maintenance rounds over the bound, summed
  int64_t resync_count = 0;       ///< maintenance re-adoptions, summed

  // --- deterministic run metrics (src/telemetry/), summed over all runs ----
  // Pure functions of (point, seeds): identical across worker counts and
  // across the dense/sparse engines. Carried through the checkpoint codec
  // (v3), so resumed sweeps replay identical metric blocks.
  int64_t rounds_simulated = 0;   ///< engine rounds elapsed, incl. maintenance
  int64_t deliveries = 0;         ///< listener receptions
  int64_t collisions = 0;         ///< freq-rounds with >= 2 reaching broadcasters
  int64_t absences = 0;           ///< choices voided by a whitespace mask
  int64_t knockouts = 0;          ///< live nodes ending a run knocked out
  // Engine-dependent (reproducible per engine; 0 under the dense engine).
  int64_t wake_events_popped = 0;
  int64_t fast_forwarded_rounds = 0;
};

/// Folds per-seed outcomes (in seed order) into the point aggregate.
PointResult aggregate_point(const ExperimentPoint& point,
                            const std::vector<RunOutcome>& outcomes);

/// The paper's Theorem 10 prediction F/(F-t) lg^2 N + F t/(F-t) lg N
/// (used by benches to compare curve shapes).
double trapdoor_predicted_rounds(int F, int t, int64_t N);

/// The paper's Theorem 18 optimistic prediction t' lg^3 N (t' >= 1).
double samaritan_predicted_rounds(int t_prime, int64_t N);

}  // namespace wsync

#endif  // WSYNC_EXPERIMENT_SWEEP_H_
