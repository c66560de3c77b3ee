// Unslotted execution (paper Section 8, "Unsynchronized rounds").
//
// "Throughout this paper, we assumed that nodes agree in advance on
// synchronized round boundaries. In general, however, slotted communication
// models can be transformed into non-slotted models, with a constant
// multiplicative cost; c.f., [1] (ALOHA). We believe that similar
// techniques can be applied to modify our protocols to work in a setting
// without synchronized round boundaries."
//
// The transform is node-local, so it is a Protocol adapter over the one
// Section-2 engine rather than an engine of its own: each Simulation round
// is one physical TICK, and each node's logical round spans
// `ticks_per_slot` (T) consecutive ticks starting at a per-node phase in
// [0, T). UnslottedNode asks the unchanged slotted protocol for one action
// per logical round and holds it for all T ticks — a broadcaster
// retransmits in every tick, a listener keeps listening and keeps the first
// clean reception of the round. With T = 2 this is the classical doubling
// transform: any two overlapping logical rounds share at least one full
// tick, so the slotted analysis carries over at a 2x cost. With T = 1 the
// adapter is transparent (bit-identical to the slotted run).
//
// Everything else — disruption, whitespace masks, sleep and the energy
// ledger, crashes, drift, tracing, the dense/sparse cohort — is the engine's.
// Outputs of phase-shifted nodes can legitimately differ by one (their
// round boundaries interleave), so the agreement property becomes "all
// non-bottom outputs after any tick differ by at most one" — checked with
// Simulation::run_maintenance(horizon, /*offset_bound=*/1).
#ifndef WSYNC_UNSLOTTED_UNSLOTTED_H_
#define WSYNC_UNSLOTTED_UNSLOTTED_H_

#include <memory>
#include <optional>

#include "src/protocol/protocol.h"
#include "src/radio/activation.h"

namespace wsync {

/// Runs one slotted protocol instance on the tick-level clock.
class UnslottedNode final : public Protocol {
 public:
  UnslottedNode(std::unique_ptr<Protocol> inner, int ticks_per_slot,
                int phase);

  void on_activate(Rng& rng) override { inner_->on_activate(rng); }
  /// Sleeps until the phase tick, then returns the logical round's action
  /// (asked of the inner protocol on the round's first tick) every tick.
  RoundAction act(Rng& rng) override;
  /// Keeps the round's first reception; closes the inner round on its last
  /// tick.
  void on_round_end(const std::optional<Message>& received,
                    Rng& rng) override;
  SyncOutput output() const override { return inner_->output(); }
  Role role() const override { return inner_->role(); }
  /// The inner protocol's probability on round-opening ticks, 0 otherwise
  /// (a held action is not a fresh draw).
  double broadcast_probability() const override;
  int64_t resync_corrections() const override {
    return inner_->resync_corrections();
  }

  /// The node's tick offset in [0, T).
  int phase() const { return phase_; }

 private:
  /// Tick index within the current logical round, or -1 before the phase.
  int tick_in_round() const;

  std::unique_ptr<Protocol> inner_;
  int ticks_per_slot_;
  int phase_;
  int64_t age_ = 0;  ///< ticks since activation
  RoundAction held_ = RoundAction::sleep();
  std::optional<Message> received_;
};

/// Wraps every node of `inner` in an UnslottedNode with phase
/// env.uid % ticks_per_slot: the uid is the engine's random per-node id, so
/// phases are i.i.d. uniform without a stream of their own.
ProtocolFactory unslotted_factory(ProtocolFactory inner, int ticks_per_slot);

/// Reads `schedule` in slot units: the nodes it wakes in slot s wake at
/// tick s * ticks_per_slot.
std::unique_ptr<ActivationSchedule> unslotted_activation(
    std::unique_ptr<ActivationSchedule> schedule, int ticks_per_slot);

}  // namespace wsync

#endif  // WSYNC_UNSLOTTED_UNSLOTTED_H_
