// Timing decorators over the public Protocol, Adversary and
// ActivationSchedule interfaces.
//
// decorate() rewraps a RunSpec's three producers so every instance they
// build forwards each virtual to the real one and counts the call into a
// LayerCounters block. Hot per-node calls are timed one in kSampleEvery
// (and every call is counted); the estimate scales the sampled time by
// calls / timed calls. Forwarding is total — asleep_for, skip_rounds and
// resync_corrections included — so the sparse engine sees the same wake
// predictions and a decorated run is bit-identical to the undecorated one
// (the benchmark checks its digests).
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "perfbench/cpp/measure.h"
#include "src/sync/runner.h"

namespace perfbench {

/// Calls made through one decorated method, and the time of the sampled ones.
struct CallStat {
  int64_t calls = 0;
  int64_t timed_calls = 0;
  int64_t timed_ns = 0;

  /// Estimated seconds over every call.
  double seconds() const {
    return timed_calls == 0 ? 0.0
                            : static_cast<double>(timed_ns) / 1e9 *
                                  static_cast<double>(calls) /
                                  static_cast<double>(timed_calls);
  }
  void merge(const CallStat& other) {
    calls += other.calls;
    timed_calls += other.timed_calls;
    timed_ns += other.timed_ns;
  }
};

/// What the decorators observed while one task (or one phase) ran.
struct LayerCounters {
  CallStat on_activate;
  CallStat act;
  CallStat on_round_end;
  CallStat skip_rounds;
  /// output, role, asleep_for, broadcast_probability, resync_corrections.
  CallStat observer;
  CallStat disrupt;
  CallStat activations;
  int64_t skipped_rounds = 0;

  void merge(const LayerCounters& other);
  /// Estimated seconds spent inside every decorated call.
  double total_s() const;
  /// The counters as `"key": value` JSON members (no braces).
  std::string json_members() const;
};

/// One call in this many of the per-node methods is timed.
inline constexpr int64_t kSampleEvery = 16;

/// Cost of one clock read, subtracted from every timed call.
int64_t clock_overhead_ns();

/// Runs fn() as one call of `stat`, timing it when the call index is a
/// multiple of `every`.
template <typename Fn>
decltype(auto) timed_call(CallStat& stat, int64_t every, Fn&& fn) {
  if (++stat.calls % every != 0) return std::forward<Fn>(fn)();
  const int64_t start = now_ns();
  auto finish = [&] {
    const int64_t spent = now_ns() - start - clock_overhead_ns();
    stat.timed_ns += spent > 0 ? spent : 0;
    ++stat.timed_calls;
  };
  if constexpr (std::is_void_v<decltype(std::forward<Fn>(fn)())>) {
    std::forward<Fn>(fn)();
    finish();
  } else {
    decltype(auto) result = std::forward<Fn>(fn)();
    finish();
    return result;
  }
}

/// The spec with its protocol factory, adversary and activation producers
/// wrapped in timing decorators that count into *counters (not owned; must
/// outlive every run of the returned spec, and be touched by one thread).
wsync::RunSpec decorate(wsync::RunSpec spec, LayerCounters* counters);

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
