#include "perfbench/cpp/probe.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "perfbench/cpp/measure.h"

namespace perfbench {
namespace {

/// 2^15 keys (128 KiB) and a 2^16-slot table (512 KiB) per lane: a round
/// stays in the per-core L1 and L2, so the probe follows the core's own
/// speed (clock, sibling load) and not other tenants' traffic in the shared
/// L3.
constexpr uint32_t kKeys = 1u << 15;
constexpr uint32_t kSlots = 1u << 16;
constexpr uint64_t kEmpty = ~uint64_t{0};
/// Rounds per pass, and repeats of the work per round: a round takes about
/// 3.75 ms on the development host.
constexpr int kRounds = 5;
constexpr int kRepeats = 2;

}  // namespace

HostProbe::HostProbe(int threads) : keys_(kKeys) {
  // Sattolo's shuffle from a fixed seed: a random permutation that is one
  // cycle through every slot, so the chase below visits every key.
  for (uint32_t i = 0; i < kKeys; ++i) keys_[i] = i;
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (uint32_t i = kKeys - 1; i > 0; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t j = static_cast<uint32_t>((state >> 33) % i);
    std::swap(keys_[i], keys_[j]);
  }
  lanes_.resize(static_cast<size_t>(std::max(threads, 1)));
  for (Lane& lane : lanes_) {
    lane.sorted.resize(kKeys);
    lane.table.resize(kSlots);
  }
}

double HostProbe::time_pass() {
  {
    // Lane 0 runs on the calling thread; jthreads join on every path.
    std::vector<std::jthread> others;
    for (size_t i = 1; i < lanes_.size(); ++i) {
      others.emplace_back([this, i] { run_lane(lanes_[i]); });
    }
    run_lane(lanes_[0]);
  }
  double sum = 0;
  for (const Lane& lane : lanes_) sum += lane.seconds;
  return sum / static_cast<double>(lanes_.size());
}

void HostProbe::run_lane(Lane& lane) const {
  double rounds[kRounds];
  for (double& round : rounds) round = time_round(lane);
  std::nth_element(rounds, rounds + kRounds / 2, rounds + kRounds);
  lane.seconds = rounds[kRounds / 2];
}

double HostProbe::time_round(Lane& lane) const {
  const Interval round;
  uint64_t h = lane.sink | 1;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    // Branchy compares and moves: sort a copy of the permutation.
    std::copy(keys_.begin(), keys_.end(), lane.sorted.begin());
    std::sort(lane.sorted.begin(), lane.sorted.end());
    h += lane.sorted[h % kKeys];

    // Hashing with linear probing: insert half the keys, look up every key.
    std::fill(lane.table.begin(), lane.table.end(), kEmpty);
    auto slot_of = [](uint32_t key) {
      return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 48);
    };
    for (uint32_t i = 0; i < kKeys; i += 2) {
      uint32_t slot = slot_of(keys_[i]);
      while (lane.table[slot] != kEmpty) slot = (slot + 1) & (kSlots - 1);
      lane.table[slot] = uint64_t{keys_[i]} << 32 | i;
    }
    for (uint32_t i = 0; i < kKeys; ++i) {
      for (uint32_t slot = slot_of(keys_[i]); lane.table[slot] != kEmpty;
           slot = (slot + 1) & (kSlots - 1)) {
        if (lane.table[slot] >> 32 == keys_[i]) {
          h += lane.table[slot] & 0xFFFFFFFFu;
          break;
        }
      }
    }

    // A serial chain: chase the cycle through a multiply-xorshift hash.
    uint32_t slot = static_cast<uint32_t>(h % kKeys);
    for (uint32_t step = 0; step < 4 * kKeys; ++step) {
      const uint32_t v = keys_[slot];
      h = (h ^ v) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
      slot = v;
    }
  }
  lane.sink = h;
  return round.wall_s();
}

}  // namespace perfbench
