#include "src/drift/drift.h"

#include <limits>

namespace wsync {
namespace {

/// floor(product / 1e6). C++ integer division truncates toward zero, so a
/// negative non-exact quotient is one above the floor.
template <typename Int>
int64_t floor_div_by_scale(Int product) {
  auto quotient = static_cast<int64_t>(product / kDriftPpmScale);
  if (product % kDriftPpmScale != 0 && product < 0) --quotient;
  return quotient;
}

}  // namespace

int64_t drift_skew(int64_t age, int64_t rate_ppm) {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  WSYNC_REQUIRE(rate_ppm > -kDriftPpmScale && rate_ppm < kDriftPpmScale,
                "drift rate must lie in (-1'000'000, 1'000'000) ppm");
  // Up to INT64_MAX / 1e6 (every age a run reaches) the int64 product is
  // exact, since |rate| < 1e6, and the constant divisor compiles to a
  // multiply. Larger ages keep the exact 128-bit product.
  if (age <= std::numeric_limits<int64_t>::max() / kDriftPpmScale) {
    return floor_div_by_scale(age * rate_ppm);
  }
  return floor_div_by_scale(static_cast<__int128>(age) * rate_ppm);
}

int64_t local_clock(int64_t age, int64_t rate_ppm) {
  return age + drift_skew(age, rate_ppm);
}

}  // namespace wsync
