// Whitespace channel-availability adversary (Azar, Emek, van Stee et al.,
// "Optimal whitespace synchronization strategies").
//
// In the whitespace model the parties do not share a common view of the
// spectrum: each node can use only a subset of the F channels (TV-band
// incumbents occupy the rest), the subsets differ between nodes, and a node
// knows nothing about the other nodes' views. Rendezvous must happen on a
// channel in the intersection. This adversary realizes that model on top of
// the paper's jamming engine: it draws one fixed availability mask per node
// from its private RNG stream at the start of the run (so masks are
// deterministic per seed and bit-identical across worker counts), keeping a
// configurable number of channels common to every node so the intersection
// is nonempty and synchronization remains possible. Optionally it also jams
// like RandomSubsetAdversary, consuming the ordinary budget t on top of the
// availability restriction.
#ifndef WSYNC_ADVERSARY_WHITESPACE_H_
#define WSYNC_ADVERSARY_WHITESPACE_H_

#include <vector>

#include "src/adversary/adversary.h"

namespace wsync {

class WhitespaceAdversary final : public Adversary {
 public:
  struct Params {
    int n = 1;          ///< number of nodes (one mask each)
    int available = 1;  ///< channels available per node, 1 <= available <= F
    int shared = 1;     ///< channels common to ALL nodes,
                        ///< 1 <= shared <= available
    int jam_count = 0;  ///< additionally jam this many random channels/round
  };

  explicit WhitespaceAdversary(Params params);

  /// Materializes the masks on the first call (the only place the adversary
  /// holds the run's RNG stream), then jams `jam_count` uniformly random
  /// frequencies per round — the empty set when jam_count is 0.
  std::vector<Frequency> disrupt(const EngineView& view, Rng& rng) override;

  /// Masks are fixed for the whole run and the jamming ignores history.
  bool is_oblivious() const override { return true; }

  bool restricts_availability() const override { return true; }
  bool channel_available(NodeId id, Frequency f) const override;

  /// The materialized per-node masks (n rows of F flags); valid after the
  /// first disrupt(). Exposed so tests can assert the delivery/mask law.
  const std::vector<std::vector<char>>& masks() const;

  /// The channels guaranteed common to every node; valid after the first
  /// disrupt().
  const std::vector<Frequency>& shared_channels() const;

 private:
  void materialize(int F, Rng& rng);

  Params params_;
  bool materialized_ = false;
  std::vector<std::vector<char>> masks_;     // [node][frequency]
  std::vector<Frequency> shared_channels_;   // sorted
};

}  // namespace wsync

#endif  // WSYNC_ADVERSARY_WHITESPACE_H_
