// Host-speed probe: a fixed piece of ordinary C++ work (a sort, a hash
// table, a serial integer chain) that shares no code with the simulator and
// allocates nothing while timed, run between workload iterations. The shared
// host's speed drifts for minutes at a time and every timing moves with it;
// scaling a time by the probe's time measured beside it cancels most of that
// drift, while a change to the simulator still moves the scaled time in
// full.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// The probe round's median time on the development host in a quiet hour
/// (perfbench/DESIGN.md). It defines the reference second: a time measured
/// while a probe round took p seconds is reported as
/// `seconds * kProbeReferenceSeconds / p`.
constexpr double kProbeReferenceSeconds = 3.75e-3;

inline double reference_seconds(double seconds, double probe_s) {
  return seconds * kProbeReferenceSeconds / probe_s;
}

class HostProbe {
 public:
  /// `threads` lanes run the probe at once: as many as the workload keeps
  /// busy, because each busy vCPU of the shared host runs slower than a
  /// lone one.
  explicit HostProbe(int threads);

  /// Wall seconds of one probe round: per lane the median of a few rounds
  /// timed back to back, so one interrupted round does not move it, then
  /// the mean over the lanes.
  double time_pass();

 private:
  struct Lane {
    std::vector<uint32_t> sorted;  ///< scratch for the sort
    std::vector<uint64_t> table;   ///< scratch open-addressing hash table
    uint64_t sink = 0;             ///< the last round's result, kept live
    double seconds = 0;            ///< the lane's result of the last pass
  };

  void run_lane(Lane& lane) const;
  double time_round(Lane& lane) const;

  std::vector<uint32_t> keys_;  ///< a fixed permutation, one cycle; shared
  std::vector<Lane> lanes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
