// Convenience harness: assemble a Simulation, drive it to liveness with the
// verifier attached, and collect the measurements every experiment needs.
#ifndef WSYNC_SYNC_RUNNER_H_
#define WSYNC_SYNC_RUNNER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/protocol/protocol.h"
#include "src/radio/activation.h"
#include "src/radio/engine.h"
#include "src/sync/verifier.h"

namespace wsync {

/// A reusable experiment description. Producers are invoked once per run so
/// specs can be replayed across seeds (adversaries and schedules are
/// stateful).
struct RunSpec {
  SimConfig sim;
  ProtocolFactory factory;
  std::function<std::unique_ptr<Adversary>()> make_adversary;
  std::function<std::unique_ptr<ActivationSchedule>()> make_activation;
  RoundId max_rounds = 0;
  /// Keep stepping this many rounds after liveness to exercise the
  /// post-synchronization behaviour (agreement must keep holding).
  RoundId extra_rounds = 0;
  /// Crash-fault waves (Section 8): before executing round `wave.round`, the
  /// runner crashes the `wave.count` lowest-id nodes that are active and not
  /// yet crashed. Purely a function of the round index and engine state, so
  /// runs stay bit-deterministic per seed. Waves scheduled after the run
  /// ends (liveness + extra_rounds) never fire.
  std::vector<CrashWave> crash_waves;
  VerifierConfig verifier;
  /// Resync-maintenance phase (hold-the-sync): after liveness + extra_rounds
  /// the runner keeps stepping this many more rounds, charting the max
  /// pairwise output offset over live synchronized nodes every round
  /// (Simulation::run_maintenance). 0 disables the phase. The verifier does
  /// not observe maintenance rounds — under clock drift its per-round
  /// +1-correctness and agreement checks are the wrong yardstick; the offset
  /// bound below is the maintenance-phase correctness criterion.
  RoundId maintenance_rounds = 0;
  /// Offset bound enforced during maintenance: any round whose max pairwise
  /// offset exceeds this counts as a violation. Negative = chart only.
  int64_t offset_bound = -1;
  /// Optional trace sink observing this run. Not owned; must outlive the
  /// run. A sink that allows_fast_forward() (the telemetry sink does)
  /// leaves every result bit-identical to the untraced run; MemoryTrace
  /// degrades the sparse engine to round-by-round execution. Which run of
  /// a replicated grid gets traced is the sweep's decision (see
  /// StreamingSweepOptions::trace).
  TraceSink* trace = nullptr;
};

struct RunOutcome {
  bool synced = false;          ///< liveness reached within max_rounds
  RoundId rounds = 0;           ///< rounds executed when liveness reached
  RoundId last_sync_round = -1; ///< max over nodes of absolute sync round
  /// Per node: rounds from its own activation to its first number
  /// (-1 if never synchronized).
  std::vector<RoundId> sync_latency;
  SyncVerifier::Report properties;
  double max_broadcast_weight = 0.0;
  /// Whole-run radio-use totals from the engine's EnergyLedger (awake =
  /// broadcast + listen; timeouts spend energy too, so this is always set).
  RunEnergy energy;
  /// Maintenance-phase results (all 0 when maintenance_rounds == 0).
  int64_t max_offset_seen = 0;    ///< max per-round pairwise output spread
  int64_t offset_violations = 0;  ///< rounds whose spread exceeded the bound
  int64_t resync_count = 0;       ///< re-adoptions during maintenance

  // --- deterministic run metrics (src/telemetry/) --------------------------
  // Pure functions of (spec, seed): identical across worker counts and
  // across the dense/sparse engines.
  int64_t rounds_simulated = 0;   ///< total rounds elapsed, incl. maintenance
  int64_t deliveries = 0;         ///< listener receptions, whole run
  int64_t collisions = 0;         ///< freq-rounds with >= 2 reaching broadcasters
  int64_t absences = 0;           ///< choices voided by a whitespace mask
  int64_t knockouts = 0;          ///< live nodes ending the run knocked out
  // Engine-dependent metrics: reproducible per (spec, seed, engine); the
  // dense engine reports 0 for both.
  int64_t wake_events_popped = 0;
  int64_t fast_forwarded_rounds = 0;
};

/// Runs one seeded experiment to completion.
RunOutcome run_sync_experiment(const RunSpec& spec);

}  // namespace wsync

#endif  // WSYNC_SYNC_RUNNER_H_
