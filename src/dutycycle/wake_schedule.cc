#include "src/dutycycle/wake_schedule.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/math_util.h"
#include "src/common/require.h"

namespace wsync {

int WakeSchedule::grid_side_for(int64_t N) {
  WSYNC_REQUIRE(N >= 1, "N must be positive");
  return static_cast<int>(next_pow2(std::max<int64_t>(4, lg_ceil(N))));
}

int64_t WakeSchedule::overlap_window(int64_t N) {
  const int64_t s = grid_side_for(N);
  return s * s;
}

WakeSchedule::WakeSchedule(int64_t N, Rng& rng) {
  side_ = grid_side_for(N);
  lg_side_ = lg_floor(side_);  // s = 2^lg_side_
  period_ = static_cast<int64_t>(side_) * side_;
  WSYNC_CHECK(lg_side_ < kMaxRungs, "grid side exceeds the rung capacity");

  // Rung k spans s·2^k rounds at density 2^-k; phase drawn per rung.
  for (int k = 0; k <= lg_side_; ++k) {
    rung_phase_[static_cast<size_t>(k)] = static_cast<uint8_t>(
        rng.next_below(static_cast<uint64_t>(pow2(k))));
  }
  ladder_rounds_ = rung_start(lg_side_ + 1);  // s·(2s − 1)
  ladder_awake_ = static_cast<int64_t>(side_) * (lg_side_ + 1);

  row_ = static_cast<int>(rng.next_below(static_cast<uint64_t>(side_)));
  col_ = static_cast<int>(rng.next_below(static_cast<uint64_t>(side_)));
}

int WakeSchedule::rung_of(int64_t age) const {
  return std::bit_width(static_cast<uint64_t>((age >> lg_side_) + 1)) - 1;
}

bool WakeSchedule::awake(int64_t age) const {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  if (age < ladder_rounds_) {
    const int k = rung_of(age);
    const int64_t offset = (age - rung_start(k)) & ((int64_t{1} << k) - 1);
    return offset == rung_phase_[static_cast<size_t>(k)];
  }
  const int64_t pos = (age - ladder_rounds_) & (period_ - 1);
  return (pos >> lg_side_) == row_ || (pos & (side_ - 1)) == col_;
}

int64_t WakeSchedule::steady_next(int64_t pos) const {
  // Distance to the column residue or to the row block start, whichever
  // comes first. Both are > 0 when `pos` itself is asleep.
  const int64_t in_row = pos & (side_ - 1);
  if ((pos >> lg_side_) == row_ || in_row == col_) return pos;
  const int64_t to_col = (col_ - in_row) & (side_ - 1);
  const int64_t to_row =
      ((static_cast<int64_t>(row_) << lg_side_) - pos) & (period_ - 1);
  return pos + std::min(to_col, to_row);
}

int64_t WakeSchedule::next_awake(int64_t age) const {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  // The sparse engine calls this once per node per awake round. Within one
  // phase the asleep gap is bounded by the stride (<= s for every rung and
  // for the steady column); across a rung boundary it can stretch to the
  // old stride plus the next rung's phase — still < 3s.
  if (age >= ladder_rounds_) {
    const int64_t pos = (age - ladder_rounds_) & (period_ - 1);
    const int64_t delta = steady_next(pos) - pos;
    // A query in the final partial period before INT64_MAX may have no
    // representable answer; `age + delta` would silently wrap (signed
    // overflow UB) instead of failing. No real run gets here — ages are
    // bounded by the round budget — so fail crisply rather than wrap.
    WSYNC_REQUIRE(delta <= std::numeric_limits<int64_t>::max() - age,
                  "next_awake overflows int64 (age too close to INT64_MAX)");
    return age + delta;
  }
  // Ladder: jump to the rung's next residue slot, or — when the rung ends
  // first — to the next rung's phase (or the steady grid's first slot).
  const int k = rung_of(age);
  const int64_t mask = (int64_t{1} << k) - 1;
  const int64_t delta =
      (rung_phase_[static_cast<size_t>(k)] - (age - rung_start(k))) & mask;
  const int64_t next_start = rung_start(k + 1);
  if (age + delta < next_start) return age + delta;
  if (k == lg_side_) return next_start + steady_next(0);
  return next_start + rung_phase_[static_cast<size_t>(k + 1)];
}

int64_t WakeSchedule::awake_rounds_before(int64_t age) const {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  if (age < ladder_rounds_) {
    // Rungs 0..k−1 are complete (s awake slots each); in rung k the slots
    // ≡ phase (mod 2^k) among its first `span` rounds are awake.
    const int k = rung_of(age);
    const int64_t span = age - rung_start(k);
    const int64_t phase = rung_phase_[static_cast<size_t>(k)];
    return (static_cast<int64_t>(k) << lg_side_) +
           ((span + (int64_t{1} << k) - 1 - phase) >> k);
  }
  // Steady contribution: 2s − 1 per full period, plus the partial tail
  // [0, tail). The tail holds clamp(tail − row·s, 0, s) slots of the node's
  // row and ⌊tail / s⌋ (+1 if tail mod s > col) slots of its column; the
  // slot on both is subtracted once.
  const int64_t steady = age - ladder_rounds_;
  const int64_t periods = steady >> (2 * lg_side_);
  const int64_t tail = steady & (period_ - 1);
  const int64_t row_start = static_cast<int64_t>(row_) << lg_side_;
  const int64_t row_hits = std::clamp<int64_t>(tail - row_start, 0, side_);
  const int64_t col_hits =
      (tail >> lg_side_) + ((tail & (side_ - 1)) > col_ ? 1 : 0);
  const int64_t both = row_start + col_ < tail ? 1 : 0;
  return ladder_awake_ + periods * slots_per_period() + row_hits + col_hits -
         both;
}

}  // namespace wsync
