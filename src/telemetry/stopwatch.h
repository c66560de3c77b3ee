// The sanctioned wall-clock site for timing: telemetry timing metrics and
// bench self-timing (bench/engine_scale) both read it.
//
// wsync_lint bans wall-clock reads everywhere except the service deadline
// (src/service/deadline.h) and this header, because a clock read that
// feeds a result silently breaks every byte-identity wall in the repo. A
// telemetry Stopwatch may only ever feed MetricClass::kTiming metrics —
// wall-clock observations that are excluded from every bit-identity wall —
// or a bench's printed timings, never a simulation outcome or a
// deterministic metric. Keep every steady_clock mention inside this file;
// callers use the Stopwatch API, which wsync_lint treats as ordinary code.
//
// Header-only and dependency-free on purpose: any layer (including
// src/common's ThreadPool, which sits below the telemetry library) can
// include it without a link-order or layering concern.
#ifndef WSYNC_TELEMETRY_STOPWATCH_H_
#define WSYNC_TELEMETRY_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace wsync::telemetry {

/// Monotonic elapsed-time meter. Starts running at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  int64_t elapsed_nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  double elapsed_millis() const {
    return static_cast<double>(elapsed_nanos()) / 1e6;
  }

  double elapsed_seconds() const {
    return static_cast<double>(elapsed_nanos()) / 1e9;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wsync::telemetry

#endif  // WSYNC_TELEMETRY_STOPWATCH_H_
