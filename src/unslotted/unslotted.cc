#include "src/unslotted/unslotted.h"

#include <utility>
#include <vector>

#include "src/common/require.h"

namespace wsync {

namespace {

class SlotActivation final : public ActivationSchedule {
 public:
  SlotActivation(std::unique_ptr<ActivationSchedule> slots,
                 int ticks_per_slot)
      : slots_(std::move(slots)), ticks_per_slot_(ticks_per_slot) {}

  std::vector<NodeId> activations(RoundId r, Rng& rng) override {
    if (r % ticks_per_slot_ != 0) return {};
    return slots_->activations(r / ticks_per_slot_, rng);
  }
  RoundId last_activation_round() const override {
    return slots_->last_activation_round() * ticks_per_slot_;
  }

 private:
  std::unique_ptr<ActivationSchedule> slots_;
  RoundId ticks_per_slot_;
};

}  // namespace

UnslottedNode::UnslottedNode(std::unique_ptr<Protocol> inner,
                             int ticks_per_slot, int phase)
    : inner_(std::move(inner)),
      ticks_per_slot_(ticks_per_slot),
      phase_(phase) {
  WSYNC_REQUIRE(inner_ != nullptr, "inner protocol is required");
  WSYNC_REQUIRE(phase_ >= 0 && phase_ < ticks_per_slot_,
                "phase must lie in [0, ticks_per_slot)");
}

int UnslottedNode::tick_in_round() const {
  if (age_ < phase_) return -1;
  return static_cast<int>((age_ - phase_) % ticks_per_slot_);
}

RoundAction UnslottedNode::act(Rng& rng) {
  if (tick_in_round() == 0) held_ = inner_->act(rng);
  return held_;
}

void UnslottedNode::on_round_end(const std::optional<Message>& received,
                                 Rng& rng) {
  const int tick = tick_in_round();
  ++age_;
  if (tick < 0) return;
  if (!received_.has_value()) received_ = received;
  if (tick == ticks_per_slot_ - 1) {
    inner_->on_round_end(received_, rng);
    received_.reset();
  }
}

double UnslottedNode::broadcast_probability() const {
  return tick_in_round() == 0 ? inner_->broadcast_probability() : 0.0;
}

ProtocolFactory unslotted_factory(ProtocolFactory inner, int ticks_per_slot) {
  WSYNC_REQUIRE(inner != nullptr, "protocol factory is required");
  WSYNC_REQUIRE(ticks_per_slot >= 1, "ticks_per_slot must be at least 1");
  return [inner = std::move(inner), ticks_per_slot](const ProtocolEnv& env) {
    const auto phase = static_cast<int>(
        env.uid % static_cast<uint64_t>(ticks_per_slot));
    return std::make_unique<UnslottedNode>(inner(env), ticks_per_slot, phase);
  };
}

std::unique_ptr<ActivationSchedule> unslotted_activation(
    std::unique_ptr<ActivationSchedule> schedule, int ticks_per_slot) {
  WSYNC_REQUIRE(schedule != nullptr, "activation schedule is required");
  WSYNC_REQUIRE(ticks_per_slot >= 1, "ticks_per_slot must be at least 1");
  return std::make_unique<SlotActivation>(std::move(schedule),
                                          ticks_per_slot);
}

}  // namespace wsync
