// The sanctioned wall-clock site for service I/O pacing.
//
// wsync_lint bans wall-clock reads everywhere except the telemetry
// stopwatch (src/telemetry/stopwatch.h) and this header, because a clock
// read that feeds a result silently breaks every byte-identity wall in the
// repo. A Deadline may only ever gate *whether the service keeps accepting
// work* (an operational watchdog on wsync_serve, a poll timeout in a
// harness) — never what any accepted job computes. Keep every
// steady_clock mention inside this file; callers use the Deadline API,
// which wsync_lint treats as ordinary code.
#ifndef WSYNC_SERVICE_DEADLINE_H_
#define WSYNC_SERVICE_DEADLINE_H_

#include <chrono>

namespace wsync {

class Deadline {
 public:
  /// Expires `ms` milliseconds from now; `ms <= 0` is already expired.
  static Deadline after_ms(long ms) {
    Deadline deadline;
    deadline.unlimited_ = false;
    deadline.end_ =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return deadline;
  }

  /// Never expires (the default for a service with no watchdog).
  static Deadline never() { return Deadline{}; }

  bool expired() const {
    return !unlimited_ && std::chrono::steady_clock::now() >= end_;
  }

 private:
  bool unlimited_ = true;
  std::chrono::steady_clock::time_point end_;
};

}  // namespace wsync

#endif  // WSYNC_SERVICE_DEADLINE_H_
