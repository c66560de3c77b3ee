// Quantitative adaptivity test for the Good Samaritan protocol
// (Theorem 18): with simultaneous wake and a low-frequency jammer fixed on
// {0..t'-1}, synchronization must complete within the super-epoch whose
// band finally out-sizes the jammer — i.e. by the end of super-epoch
// lg(2t') (+1 slack super-epoch for the whp failure case), NOT at the
// worst-case O(F log^3 N) horizon.
#include <gtest/gtest.h>

#include <string>

#include "src/experiment/sweep.h"
#include "src/samaritan/schedule.h"
#include "tests/testing/point_runner.h"

namespace wsync {
namespace {

struct TimingCase {
  int F;
  int t;
  int t_prime;
  int64_t N;
  int n;
};

std::string timing_name(const ::testing::TestParamInfo<TimingCase>& info) {
  const TimingCase& c = info.param;
  return std::string("F") + std::to_string(c.F) + "tp" + std::to_string(c.t_prime) +
         "N" + std::to_string(c.N) + "n" + std::to_string(c.n);
}

class SamaritanTimingTest : public ::testing::TestWithParam<TimingCase> {};

TEST_P(SamaritanTimingTest, SyncsWithinTheAdaptiveSuperEpoch) {
  const TimingCase& c = GetParam();
  ExperimentPoint point;
  point.F = c.F;
  point.t = c.t;
  point.N = c.N;
  point.n = c.n;
  point.jam_count = c.t_prime;
  point.protocol = ProtocolKind::kGoodSamaritan;
  point.adversary =
      c.t_prime == 0 ? AdversaryKind::kNone : AdversaryKind::kFixedFirst;
  point.activation = ActivationKind::kSimultaneous;

  const PointResult result = testing::run_one_point(point, 4);
  ASSERT_EQ(result.synced_runs, result.runs);

  // The adaptive budget: every super-epoch through k* + 1, where k* is the
  // first super-epoch whose band exceeds t' (k* = lg(2 t'), at least 1),
  // plus an absorption allowance of one extra epoch length.
  const SamaritanSchedule schedule(c.F, c.t, c.N);
  int k_star = 1;
  while (k_star < schedule.num_super_epochs() &&
         schedule.band(k_star) <= c.t_prime) {
    ++k_star;
  }
  const int k_budget = std::min(schedule.num_super_epochs(), k_star + 1);
  double budget = 0;
  for (int k = 1; k <= k_budget; ++k) {
    budget += static_cast<double>(schedule.super_epoch_length(k));
  }
  budget += static_cast<double>(schedule.epoch_length(k_budget));

  EXPECT_LE(result.rounds_to_live.max, budget)
      << "k*=" << k_star
      << " (adaptive horizon exceeded: the protocol is not tracking t')";

  // And the worst-case horizon must NOT be what we are paying — whenever
  // the adaptive horizon leaves super-epochs unused, the budget is
  // strictly below the full optimistic portion.
  if (k_budget < schedule.num_super_epochs()) {
    EXPECT_LT(budget,
              static_cast<double>(schedule.total_optimistic_rounds()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SamaritanTimingTest,
    ::testing::Values(TimingCase{16, 8, 0, 16, 4},
                      TimingCase{16, 8, 1, 16, 4},
                      TimingCase{16, 8, 2, 16, 4},
                      TimingCase{16, 8, 4, 16, 6},
                      TimingCase{32, 16, 1, 16, 4},
                      TimingCase{32, 16, 4, 16, 4}),
    timing_name);

}  // namespace
}  // namespace wsync
