#include "src/sync/runner.h"

#include <algorithm>

#include "src/common/require.h"

namespace wsync {

RunOutcome run_sync_experiment(const RunSpec& spec) {
  WSYNC_REQUIRE(spec.max_rounds > 0, "max_rounds must be positive");
  WSYNC_REQUIRE(spec.factory != nullptr, "protocol factory is required");
  WSYNC_REQUIRE(spec.make_adversary != nullptr, "adversary producer required");
  WSYNC_REQUIRE(spec.make_activation != nullptr,
                "activation producer required");

  for (const CrashWave& wave : spec.crash_waves) {
    WSYNC_REQUIRE(wave.round >= 0 && wave.count >= 0,
                  "crash waves need a non-negative round and count");
  }
  WSYNC_REQUIRE(spec.maintenance_rounds >= 0,
                "maintenance_rounds must be non-negative");

  Simulation sim(spec.sim, spec.factory, spec.make_adversary(),
                 spec.make_activation(), spec.trace);
  SyncVerifier verifier(spec.verifier);

  RunOutcome outcome;
  double max_weight = 0.0;

  // Crashes the waves scheduled for the round about to execute. Victims are
  // the lowest-id live nodes, so the choice depends only on engine state and
  // runs stay bit-identical at any worker count.
  auto apply_crash_waves = [&] {
    for (const CrashWave& wave : spec.crash_waves) {
      if (wave.round != sim.round()) continue;
      int remaining = wave.count;
      for (NodeId id = 0; id < spec.sim.n && remaining > 0; ++id) {
        if (sim.is_active(id) && !sim.is_crashed(id)) {
          sim.crash(id);
          --remaining;
        }
      }
    }
  };

  while (sim.round() < spec.max_rounds) {
    apply_crash_waves();
    const RoundReport report = sim.step();
    max_weight = std::max(max_weight, report.broadcast_weight);
    verifier.observe(sim);
    if (sim.all_synced()) break;
  }
  outcome.synced = sim.all_synced();
  outcome.rounds = sim.round();

  for (RoundId i = 0; i < spec.extra_rounds; ++i) {
    apply_crash_waves();
    const RoundReport report = sim.step();
    max_weight = std::max(max_weight, report.broadcast_weight);
    verifier.observe(sim);
  }

  if (spec.maintenance_rounds > 0) {
    // Hold-the-sync: the engine charts the per-round output spread itself.
    // Crash waves do not fire here by design — a drift scenario that wants
    // crashes schedules them during the wake-up phase — and the verifier
    // does not observe (see RunSpec::maintenance_rounds).
    const Simulation::MaintenanceReport maintenance =
        sim.run_maintenance(spec.maintenance_rounds, spec.offset_bound);
    outcome.max_offset_seen = maintenance.max_offset_seen;
    outcome.offset_violations = maintenance.offset_violations;
    outcome.resync_count = maintenance.resync_count;
  }

  outcome.sync_latency.resize(static_cast<size_t>(spec.sim.n), -1);
  for (NodeId id = 0; id < spec.sim.n; ++id) {
    const RoundId sync_at = sim.sync_round(id);
    const RoundId woke_at = sim.activation_round(id);
    if (sync_at >= 0) {
      outcome.last_sync_round = std::max(outcome.last_sync_round, sync_at);
      WSYNC_CHECK(woke_at >= 0, "synced node without activation round");
      outcome.sync_latency[static_cast<size_t>(id)] = sync_at - woke_at;
    }
  }

  outcome.properties = verifier.report();
  outcome.max_broadcast_weight = max_weight;
  outcome.energy = sim.energy().totals();

  // Deterministic run metrics. role() settles sparse nodes, so the
  // knockout count matches the dense engine's bit-for-bit.
  outcome.rounds_simulated = sim.round();
  outcome.deliveries = sim.deliveries_total();
  outcome.collisions = sim.collisions_total();
  outcome.absences = sim.absences_total();
  for (NodeId id = 0; id < spec.sim.n; ++id) {
    if (sim.role(id) == Role::kKnockedOut) ++outcome.knockouts;
  }
  outcome.wake_events_popped = sim.wake_events_popped();
  outcome.fast_forwarded_rounds = sim.fast_forwarded_rounds();
  return outcome;
}

}  // namespace wsync
