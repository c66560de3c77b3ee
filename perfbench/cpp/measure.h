// Host-side meters for the benchmark: one process-wide monotonic epoch read
// through the sanctioned telemetry Stopwatch, and CPU time / peak RSS read
// through getrusage. Nothing here feeds a simulation result.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sys/resource.h>

#include <cstdint>

#include "src/telemetry/stopwatch.h"

namespace perfbench {

/// Nanoseconds since the process-wide epoch (the first call).
inline int64_t now_ns() {
  static const wsync::telemetry::Stopwatch epoch;
  return epoch.elapsed_nanos();
}

/// User + system CPU seconds of the whole process (every thread).
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set size of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wall and CPU time of one interval, started at construction.
class Interval {
 public:
  Interval() : start_ns_(now_ns()), start_cpu_s_(process_cpu_s()) {}

  int64_t start_ns() const { return start_ns_; }
  double wall_s() const {
    return static_cast<double>(now_ns() - start_ns_) / 1e9;
  }
  double cpu_s() const { return process_cpu_s() - start_cpu_s_; }

 private:
  int64_t start_ns_;
  double start_cpu_s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
