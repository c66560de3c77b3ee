// Deterministic multi-scale wake schedule for duty-cycled synchronizers
// (the Bradonjić–Kohler–Ostrovsky regime: radios that are OFF most
// rounds).
//
// A node's local time (age = rounds since activation) is split into two
// phases:
//
//   1. A geometric "epoch ladder" of wake densities. Ladder rung k
//      (k = 0..K, s = 2^K) spans s·2^k rounds during which the node is
//      awake on one uid-seeded residue class mod 2^k — density 2^-k,
//      exactly s awake rounds per rung. Rung 0 is fully awake, so nodes
//      activated together meet immediately; each rung halves the density
//      until the steady-state floor is reached. Ladder totals: s·(K+1)
//      awake rounds over s·(2s−1) wall-clock rounds.
//
//   2. A steady-state grid quorum. The period P = s² is viewed as an
//      s×s grid; the node draws one row and one column from its
//      uid-derived Rng and is awake on those 2s−1 slots per period
//      (duty fraction ≈ 2/s).
//
// The quorum gives a DETERMINISTIC overlap guarantee that survives
// arbitrary (adversarial) activation offsets: a row is s *consecutive*
// rounds, so in global time it stays an interval of length s and therefore
// contains exactly one member of any residue class mod s — in particular
// one slot of the other node's column, whatever the offset between the two
// local clocks. Hence any two nodes that are both past their ladder share
// at least one common awake round in EVERY window of overlap_window() = P
// consecutive rounds (usually two: A.row∩B.col and B.row∩A.col). With
// s = Θ(lg N) a node spends only O(lg N · lglg N) awake rounds in the
// ladder and 2s−1 = O(lg N) awake rounds per guaranteed meeting window —
// the polylogarithmic radio use of BKO, against every activation pattern.
//
// Everything is drawn once at construction from the caller's Rng (the
// engine hands protocols their uid-derived node stream), so the schedule
// is a pure deterministic function of (N, seed material) thereafter, and
// every query below is O(1): the rung of a ladder age is read off its bit
// width, and the steady grid is counted in closed form, never scanned.
#ifndef WSYNC_DUTYCYCLE_WAKE_SCHEDULE_H_
#define WSYNC_DUTYCYCLE_WAKE_SCHEDULE_H_

#include <array>
#include <cstdint>

#include "src/common/rng.h"

namespace wsync {

class WakeSchedule {
 public:
  /// Draws ladder phases and the quorum row/column from `rng`. N is the
  /// known upper bound on the number of nodes (N >= 1).
  WakeSchedule(int64_t N, Rng& rng);

  /// True iff the node's radio is on in its local round `age` (>= 0). O(1).
  bool awake(int64_t age) const;

  /// Grid side s: a power of two, >= 4, Θ(lg N).
  int grid_side() const { return side_; }
  /// Steady-state period P = s².
  int64_t period() const { return period_; }
  /// Awake slots per steady period: 2s − 1.
  int slots_per_period() const { return 2 * side_ - 1; }
  /// Wall-clock rounds the ladder spans: s·(2s − 1).
  int64_t ladder_rounds() const { return ladder_rounds_; }
  /// Awake rounds inside the ladder: s·(lg s + 1).
  int64_t ladder_awake_rounds() const { return ladder_awake_; }
  /// Quorum coordinates (for traces and goldens).
  int row() const { return row_; }
  int col() const { return col_; }

  /// Awake rounds among local rounds [0, age) — the node's energy cost if
  /// it follows the schedule exactly. O(1): k full rungs hold k·s awake
  /// rounds, a partial rung counts its residue hits, and a steady tail is
  /// full rows + column hits − the row∩column slot.
  int64_t awake_rounds_before(int64_t age) const;

  /// Smallest age' >= age with awake(age') — the sparse engine's wake-event
  /// horizon. O(1). Always within 3·grid_side() rounds of `age`: every
  /// stride is at most s, and a rung boundary adds at most stride + next
  /// phase.
  int64_t next_awake(int64_t age) const;

  /// The proven rendezvous window: any two schedules built for this N,
  /// with ANY activation offset, share >= 1 common awake round in every
  /// span of this many consecutive rounds during which both nodes are past
  /// their ladder. Equal to period().
  static int64_t overlap_window(int64_t N);
  /// The grid side the constructor will use for this N.
  static int grid_side_for(int64_t N);

 private:
  /// s <= 64 for every int64 N (lg N <= 63), so at most lg 64 + 1 rungs.
  static constexpr int kMaxRungs = 7;

  /// The ladder rung holding `age` (< ladder_rounds_): rung k starts at
  /// s·(2^k − 1), so k = ⌊lg(age / s + 1)⌋.
  int rung_of(int64_t age) const;
  /// First local round of rung k: s·(2^k − 1).
  int64_t rung_start(int k) const {
    return ((int64_t{1} << k) - 1) << lg_side_;
  }
  /// Smallest steady position >= pos (in [0, P)) on the row or the column.
  int64_t steady_next(int64_t pos) const;

  int side_ = 4;             // s, power of two
  int lg_side_ = 2;          // lg s
  int64_t period_ = 16;      // s^2
  int64_t ladder_rounds_ = 0;
  int64_t ladder_awake_ = 0;
  // Rung k: awake iff pos ≡ phase (mod 2^k); phases are < 2^k <= s <= 64.
  std::array<uint8_t, kMaxRungs> rung_phase_{};
  int row_ = 0;
  int col_ = 0;
};

}  // namespace wsync

#endif  // WSYNC_DUTYCYCLE_WAKE_SCHEDULE_H_
