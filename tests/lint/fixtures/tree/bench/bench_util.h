// Seeded violation: bench/bench_util.h is no longer a sanctioned wall-clock
// site — benches time through src/telemetry/stopwatch.h — so a clock read
// here must be flagged like anywhere else.
#ifndef WSYNC_LINTFIX_BENCH_UTIL_H_
#define WSYNC_LINTFIX_BENCH_UTIL_H_

#include <chrono>

namespace wsync::lintfix {

inline double bench_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // VIOLATION
      .count();
}

}  // namespace wsync::lintfix

#endif  // WSYNC_LINTFIX_BENCH_UTIL_H_
