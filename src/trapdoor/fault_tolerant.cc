#include "src/trapdoor/fault_tolerant.h"

#include <cmath>

#include "src/common/require.h"

namespace wsync {

FaultTolerantTrapdoor::FaultTolerantTrapdoor(const ProtocolEnv& env,
                                             const FaultTolerantConfig& config)
    : env_(env), config_(config) {
  WSYNC_REQUIRE(config.silence_multiplier >= 1.0,
                "silence multiplier must be at least 1");
  WSYNC_REQUIRE(config.min_leader_messages >= 1,
                "min_leader_messages must be at least 1");
  inner_ = std::make_unique<TrapdoorProtocol>(env_, config_.trapdoor);
  silence_timeout_ = static_cast<int64_t>(
      std::ceil(config_.silence_multiplier *
                static_cast<double>(inner_->schedule().total_rounds())));
  WSYNC_CHECK(silence_timeout_ >= 1, "silence timeout must be positive");
}

void FaultTolerantTrapdoor::on_activate(Rng& rng) {
  inner_->on_activate(rng);
  rounds_since_leader_ = 0;
  leader_messages_ = 0;
}

RoundAction FaultTolerantTrapdoor::act(Rng& rng) { return inner_->act(rng); }

void FaultTolerantTrapdoor::restart(Rng& rng) {
  inner_ = std::make_unique<TrapdoorProtocol>(env_, config_.trapdoor);
  inner_->on_activate(rng);
  rounds_since_leader_ = 0;
  leader_messages_ = 0;
  ++restarts_;
}

void FaultTolerantTrapdoor::on_round_end(
    const std::optional<Message>& received, Rng& rng) {
  if (received.has_value() &&
      std::holds_alternative<LeaderMsg>(received->payload)) {
    rounds_since_leader_ = 0;
    ++leader_messages_;
  } else {
    ++rounds_since_leader_;
  }

  inner_->on_round_end(received, rng);

  // The leader never restarts on its own silence; everyone else restarts
  // when the leader has been quiet for too long (it presumably crashed).
  if (inner_->role() != Role::kLeader &&
      rounds_since_leader_ >= silence_timeout_) {
    restart(rng);
  }
}

SyncOutput FaultTolerantTrapdoor::output() const {
  // Delay the first output until enough leader messages arrived, so every
  // node that outputs is confident a live leader exists. The leader itself
  // outputs immediately.
  if (inner_->role() == Role::kLeader) return inner_->output();
  if (leader_messages_ < config_.min_leader_messages) return SyncOutput{};
  return inner_->output();
}

ProtocolFactory FaultTolerantTrapdoor::factory(
    const FaultTolerantConfig& config) {
  return [config](const ProtocolEnv& env) {
    return std::make_unique<FaultTolerantTrapdoor>(env, config);
  };
}

}  // namespace wsync
