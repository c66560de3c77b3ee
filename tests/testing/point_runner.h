// One experiment point through the repo's one grid runner.
//
// Tests that measure a single ExperimentPoint wrap it as a one-point
// Scenario and run it on make_seeds(seeds) through run_scenario on a
// 1-worker pool (the serial reference; any worker count gives the same
// bits). The point must pass validate().
#ifndef WSYNC_TESTS_TESTING_POINT_RUNNER_H_
#define WSYNC_TESTS_TESTING_POINT_RUNNER_H_

#include "src/common/thread_pool.h"
#include "src/experiment/sweep.h"
#include "src/service/streaming_sweep.h"

namespace wsync::testing {

inline PointResult run_one_point(const ExperimentPoint& point, int seeds) {
  ThreadPool pool(1);
  return run_scenario({.name = "test_point",
                       .summary = "one ad-hoc test point",
                       .rationale = "tests that measure a single point",
                       .grid = {point}},
                      seeds, pool)
      .points.front();
}

}  // namespace wsync::testing

#endif  // WSYNC_TESTS_TESTING_POINT_RUNNER_H_
