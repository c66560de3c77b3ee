// Shared helpers for the benchmark/table binaries.
#ifndef WSYNC_BENCH_BENCH_UTIL_H_
#define WSYNC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

namespace wsync::bench {

/// Prints a section header in the style used by every table binary.
inline void section(const std::string& title) {
  std::printf("\n## %s\n\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

}  // namespace wsync::bench

#endif  // WSYNC_BENCH_BENCH_UTIL_H_
