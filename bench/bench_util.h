// Shared helpers for the benchmark/table binaries.
#ifndef WSYNC_BENCH_BENCH_UTIL_H_
#define WSYNC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>

#include "src/telemetry/stopwatch.h"

namespace wsync::bench {

/// Prints a section header in the style used by every table binary.
inline void section(const std::string& title) {
  std::printf("\n## %s\n\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

/// Wall-clock milliseconds of one call to `fn`, read off the telemetry
/// stopwatch — the one timing site the `wallclock` lint rule allows
/// besides the service deadline. Timings are printed, never fed into a
/// result.
template <typename Fn>
double time_ms(Fn&& fn) {
  const telemetry::Stopwatch watch;
  std::forward<Fn>(fn)();
  return watch.elapsed_millis();
}

/// Compiler barrier: keeps `value` (and everything feeding it) alive in a
/// timed loop without the cost of a volatile store.
template <typename T>
inline void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

}  // namespace wsync::bench

#endif  // WSYNC_BENCH_BENCH_UTIL_H_
