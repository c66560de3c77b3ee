#include "perfbench/cpp/decorators.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

namespace perfbench {

namespace {

using wsync::Rng;

class TimedProtocol final : public wsync::Protocol {
 public:
  TimedProtocol(std::unique_ptr<wsync::Protocol> inner,
                LayerCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  void on_activate(Rng& rng) override {
    timed_call(c_->on_activate, 1, [&] { inner_->on_activate(rng); });
  }
  wsync::RoundAction act(Rng& rng) override {
    return timed_call(c_->act, kSampleEvery, [&] { return inner_->act(rng); });
  }
  void on_round_end(const std::optional<wsync::Message>& received,
                    Rng& rng) override {
    timed_call(c_->on_round_end, kSampleEvery,
               [&] { inner_->on_round_end(received, rng); });
  }
  wsync::SyncOutput output() const override {
    return timed_call(c_->observer, kSampleEvery,
                      [&] { return inner_->output(); });
  }
  wsync::Role role() const override {
    return timed_call(c_->observer, kSampleEvery,
                      [&] { return inner_->role(); });
  }
  double broadcast_probability() const override {
    return timed_call(c_->observer, kSampleEvery,
                      [&] { return inner_->broadcast_probability(); });
  }
  int64_t resync_corrections() const override {
    return timed_call(c_->observer, kSampleEvery,
                      [&] { return inner_->resync_corrections(); });
  }
  std::optional<int64_t> asleep_for() const override {
    return timed_call(c_->observer, kSampleEvery,
                      [&] { return inner_->asleep_for(); });
  }
  void skip_rounds(int64_t rounds) override {
    c_->skipped_rounds += rounds;
    timed_call(c_->skip_rounds, kSampleEvery,
               [&] { inner_->skip_rounds(rounds); });
  }

 private:
  std::unique_ptr<wsync::Protocol> inner_;
  LayerCounters* c_;
};

class TimedAdversary final : public wsync::Adversary {
 public:
  TimedAdversary(std::unique_ptr<wsync::Adversary> inner,
                 LayerCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  std::vector<wsync::Frequency> disrupt(const wsync::EngineView& view,
                                        Rng& rng) override {
    return timed_call(c_->disrupt, 1,
                      [&] { return inner_->disrupt(view, rng); });
  }
  bool is_oblivious() const override { return inner_->is_oblivious(); }
  bool never_disrupts() const override { return inner_->never_disrupts(); }
  bool restricts_availability() const override {
    return inner_->restricts_availability();
  }
  bool channel_available(wsync::NodeId id, wsync::Frequency f) const override {
    return inner_->channel_available(id, f);
  }

 private:
  std::unique_ptr<wsync::Adversary> inner_;
  LayerCounters* c_;
};

class TimedActivation final : public wsync::ActivationSchedule {
 public:
  TimedActivation(std::unique_ptr<wsync::ActivationSchedule> inner,
                  LayerCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  std::vector<wsync::NodeId> activations(wsync::RoundId r, Rng& rng) override {
    return timed_call(c_->activations, 1,
                      [&] { return inner_->activations(r, rng); });
  }
  wsync::RoundId last_activation_round() const override {
    return inner_->last_activation_round();
  }

 private:
  std::unique_ptr<wsync::ActivationSchedule> inner_;
  LayerCounters* c_;
};

int64_t calibrate_clock_overhead() {
  std::vector<int64_t> samples(2001);
  for (int64_t& sample : samples) {
    const int64_t start = now_ns();
    sample = now_ns() - start;
  }
  std::nth_element(samples.begin(), samples.begin() + 1000, samples.end());
  return samples[1000];
}

}  // namespace

int64_t clock_overhead_ns() {
  static const int64_t overhead = calibrate_clock_overhead();
  return overhead;
}

void LayerCounters::merge(const LayerCounters& other) {
  on_activate.merge(other.on_activate);
  act.merge(other.act);
  on_round_end.merge(other.on_round_end);
  skip_rounds.merge(other.skip_rounds);
  observer.merge(other.observer);
  disrupt.merge(other.disrupt);
  activations.merge(other.activations);
  skipped_rounds += other.skipped_rounds;
}

double LayerCounters::total_s() const {
  return on_activate.seconds() + act.seconds() + on_round_end.seconds() +
         skip_rounds.seconds() + observer.seconds() + disrupt.seconds() +
         activations.seconds();
}

std::string LayerCounters::json_members() const {
  std::string out;
  auto add = [&](const char* name, const CallStat& stat) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s_calls\": %lld, \"%s_s\": %.9f",
                  out.empty() ? "" : ", ", name,
                  static_cast<long long>(stat.calls), name, stat.seconds());
    out += buf;
  };
  add("protocol.on_activate", on_activate);
  add("protocol.act", act);
  add("protocol.on_round_end", on_round_end);
  add("protocol.skip_rounds", skip_rounds);
  add("protocol.observer", observer);
  add("adversary.disrupt", disrupt);
  add("activation.activations", activations);
  out += ", \"protocol.skipped_rounds\": " + std::to_string(skipped_rounds);
  return out;
}

wsync::RunSpec decorate(wsync::RunSpec spec, LayerCounters* counters) {
  spec.factory = [inner = spec.factory,
                  counters](const wsync::ProtocolEnv& env)
      -> std::unique_ptr<wsync::Protocol> {
    return std::make_unique<TimedProtocol>(inner(env), counters);
  };
  spec.make_adversary = [inner = spec.make_adversary,
                         counters]() -> std::unique_ptr<wsync::Adversary> {
    return std::make_unique<TimedAdversary>(inner(), counters);
  };
  spec.make_activation =
      [inner = spec.make_activation,
       counters]() -> std::unique_ptr<wsync::ActivationSchedule> {
    return std::make_unique<TimedActivation>(inner(), counters);
  };
  return spec;
}

}  // namespace perfbench
