// Online verifier for the five properties of the wireless synchronization
// problem (paper Section 3):
//   1. Validity     — every output is ⊥ or a number (holds by construction
//                     of SyncOutput; the verifier re-checks activation
//                     coverage instead).
//   2. Synch Commit — once a node outputs a number it never outputs ⊥
//                     again.
//   3. Correctness  — if a node outputs i in round r, it outputs i+1 in r+1.
//   4. Agreement    — all non-⊥ outputs in a round are equal (whp).
//   5. Liveness     — eventually every active node stops outputting ⊥
//                     (checked by the runner against a round budget).
//
// The verifier additionally tracks leader multiplicity (the paper's
// Theorem 10/15 argument: at most one contender becomes leader, whp).
#ifndef WSYNC_SYNC_VERIFIER_H_
#define WSYNC_SYNC_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/radio/engine.h"

namespace wsync {

struct VerifierConfig {
  /// Crash-recovery mode (Section 8): a restart legitimately returns a
  /// node's output to ⊥ and may change its numbering. When set, Synch
  /// Commit and Correctness are only enforced between resets, and
  /// Agreement violations are still counted (reported, not failed).
  bool allow_resync = false;
};

class SyncVerifier {
 public:
  explicit SyncVerifier(VerifierConfig config = {});

  /// Call once after every Simulation::step().
  void observe(const Simulation& sim);

  struct Report {
    int64_t rounds_observed = 0;
    int64_t synch_commit_violations = 0;
    int64_t correctness_violations = 0;
    int64_t agreement_violations = 0;  ///< rounds with >=2 distinct numbers
    int max_simultaneous_leaders = 0;
    int64_t resyncs_observed = 0;  ///< output returned to ⊥ (allow_resync)

    /// All hard properties hold (agreement is a whp property but any
    /// violation in a run is still a failure for that run).
    bool ok() const {
      return synch_commit_violations == 0 && correctness_violations == 0 &&
             agreement_violations == 0;
    }
  };

  const Report& report() const { return report_; }

 private:
  VerifierConfig config_;
  Report report_;
  std::vector<SyncOutput> prev_;
  bool first_observation_ = true;
};

}  // namespace wsync

#endif  // WSYNC_SYNC_VERIFIER_H_
