#include "src/unslotted/unslotted.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/adversary/basic.h"
#include "src/adversary/whitespace.h"
#include "src/dutycycle/duty_cycle.h"
#include "src/radio/engine.h"
#include "src/samaritan/good_samaritan.h"
#include "src/trapdoor/trapdoor.h"
#include "tests/testing/fake_protocol.h"

namespace wsync {
namespace {

using testing::FakeProtocol;
using testing::test_payload;

SimConfig basic_config(int F, int t, int n, uint64_t seed = 1) {
  SimConfig config;
  config.F = F;
  config.t = t;
  config.N = n;
  config.n = n;
  config.seed = seed;
  return config;
}

/// One engine round per tick; `slots` is read in slot units.
Simulation unslotted_sim(const SimConfig& config, ProtocolFactory factory,
                         int ticks_per_slot,
                         std::unique_ptr<Adversary> adversary,
                         std::unique_ptr<ActivationSchedule> slots) {
  return Simulation(config,
                    unslotted_factory(std::move(factory), ticks_per_slot),
                    std::move(adversary),
                    unslotted_activation(std::move(slots), ticks_per_slot));
}

int phase(Simulation& sim, NodeId id) {
  return dynamic_cast<UnslottedNode&>(sim.protocol(id)).phase();
}

TEST(UnslottedTest, ValidatesConfig) {
  EXPECT_THROW(unslotted_sim(basic_config(4, 4, 2),
                             FakeProtocol::factory({}, nullptr), 2,
                             std::make_unique<NoneAdversary>(),
                             std::make_unique<SimultaneousActivation>(2)),
               std::invalid_argument);
  EXPECT_THROW(unslotted_factory(FakeProtocol::factory({}, nullptr), 0),
               std::invalid_argument);
  EXPECT_THROW(
      unslotted_activation(std::make_unique<SimultaneousActivation>(2), 0),
      std::invalid_argument);
}

TEST(UnslottedTest, AlignedNodesBehaveLikeSlotted) {
  // With ticks_per_slot = 1 every node is aligned and each tick is a whole
  // logical round: a sole broadcaster reaches a listener.
  std::map<NodeId, FakeProtocol::Script> scripts;
  scripts[0].actions = {RoundAction::send(2, test_payload(7))};
  scripts[1].actions = {RoundAction::listen(2)};
  std::map<NodeId, FakeProtocol*> nodes;
  Simulation sim = unslotted_sim(basic_config(4, 0, 2),
                                 FakeProtocol::factory(scripts, &nodes), 1,
                                 std::make_unique<NoneAdversary>(),
                                 std::make_unique<SimultaneousActivation>(2));
  sim.step();
  ASSERT_FALSE(nodes[1]->receptions.empty());
  ASSERT_TRUE(nodes[1]->receptions[0].has_value());
  EXPECT_EQ(std::get<DataMsg>(nodes[1]->receptions[0]->payload).tag, 7u);
}

TEST(UnslottedTest, PhaseShiftedListenerStillHears) {
  // Seeds give nodes random phases in {0, 1}; a constant broadcaster is
  // heard by a constant listener regardless of their relative phase,
  // because transmissions repeat across the whole logical round.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::map<NodeId, FakeProtocol::Script> scripts;
    scripts[0].actions = {RoundAction::send(1, test_payload(9))};
    scripts[1].actions = {RoundAction::listen(1)};
    std::map<NodeId, FakeProtocol*> nodes;
    Simulation sim = unslotted_sim(
        basic_config(4, 0, 2, seed), FakeProtocol::factory(scripts, &nodes),
        2, std::make_unique<NoneAdversary>(),
        std::make_unique<SimultaneousActivation>(2));
    for (int i = 0; i < 8; ++i) sim.step();
    int heard = 0;
    for (const auto& r : nodes[1]->receptions) {
      if (r.has_value()) ++heard;
    }
    EXPECT_GT(heard, 0) << "seed " << seed << " phases " << phase(sim, 0)
                        << "/" << phase(sim, 1);
  }
}

TEST(UnslottedTest, PerTickDisruptionBlocks) {
  std::map<NodeId, FakeProtocol::Script> scripts;
  scripts[0].actions = {RoundAction::send(0, test_payload(1))};
  scripts[1].actions = {RoundAction::listen(0)};
  std::map<NodeId, FakeProtocol*> nodes;
  Simulation sim = unslotted_sim(basic_config(4, 1, 2),
                                 FakeProtocol::factory(scripts, &nodes), 2,
                                 std::make_unique<FixedSubsetAdversary>(1),
                                 std::make_unique<SimultaneousActivation>(2));
  for (int i = 0; i < 12; ++i) sim.step();
  for (const auto& r : nodes[1]->receptions) {
    EXPECT_FALSE(r.has_value());
  }
}

TEST(UnslottedTest, PhasesAreAssignedWithinSlot) {
  Simulation sim = unslotted_sim(basic_config(4, 0, 16),
                                 FakeProtocol::factory({}, nullptr), 4,
                                 std::make_unique<NoneAdversary>(),
                                 std::make_unique<SimultaneousActivation>(16));
  sim.step();
  std::set<int> phases;
  for (NodeId id = 0; id < 16; ++id) {
    EXPECT_GE(phase(sim, id), 0);
    EXPECT_LT(phase(sim, id), 4);
    phases.insert(phase(sim, id));
  }
  EXPECT_GT(phases.size(), 1u);  // not all aligned
}

TEST(UnslottedTest, TrapdoorSynchronizesUnslotted) {
  // The Section 8 claim: the slotted protocol carries over at a constant
  // multiplicative cost. Trapdoor instances with random phases must still
  // elect a unique leader and synchronize.
  SimConfig config = basic_config(8, 2, 6, 99);
  config.N = 16;
  Simulation sim = unslotted_sim(config, TrapdoorProtocol::factory(), 2,
                                 std::make_unique<RandomSubsetAdversary>(2),
                                 std::make_unique<SimultaneousActivation>(6));
  const auto result = sim.run_until_synced(4000000);
  ASSERT_TRUE(result.synced);
  int leaders = 0;
  for (NodeId id = 0; id < 6; ++id) {
    if (sim.role(id) == Role::kLeader) ++leaders;
    EXPECT_TRUE(sim.output(id).has_number());
  }
  EXPECT_EQ(leaders, 1);
}

TEST(UnslottedTest, OutputSpreadStaysWithinOneRound) {
  // Phase-shifted nodes may straddle a round boundary, so their outputs can
  // differ by one — but never more, after any tick.
  SimConfig config = basic_config(8, 2, 5, 7);
  config.N = 16;
  Simulation sim = unslotted_sim(config, TrapdoorProtocol::factory(), 2,
                                 std::make_unique<RandomSubsetAdversary>(2),
                                 std::make_unique<SimultaneousActivation>(5));
  const auto result = sim.run_until_synced(4000000);
  ASSERT_TRUE(result.synced);
  const Simulation::MaintenanceReport held =
      sim.run_maintenance(500, /*offset_bound=*/1);
  EXPECT_EQ(held.offset_violations, 0);
  EXPECT_LE(held.max_offset_seen, 1);
}

TEST(UnslottedTest, UnslottedCostIsRoughlyTheRepetitionFactor) {
  // Slotted baseline vs ticks_per_slot = 2: ticks-to-sync should be about
  // 2x the slotted rounds-to-sync (same protocol, same parameters).
  SimConfig config = basic_config(8, 2, 4, 5);
  config.N = 16;
  Simulation slotted = unslotted_sim(
      config, TrapdoorProtocol::factory(), 1,
      std::make_unique<RandomSubsetAdversary>(2),
      std::make_unique<SimultaneousActivation>(4));
  const auto slotted_result = slotted.run_until_synced(4000000);
  ASSERT_TRUE(slotted_result.synced);

  Simulation doubled = unslotted_sim(
      config, TrapdoorProtocol::factory(), 2,
      std::make_unique<RandomSubsetAdversary>(2),
      std::make_unique<SimultaneousActivation>(4));
  const auto doubled_result = doubled.run_until_synced(8000000);
  ASSERT_TRUE(doubled_result.synced);

  const double ratio = static_cast<double>(doubled_result.rounds) /
                       static_cast<double>(slotted_result.rounds);
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 4.0);  // constant multiplicative cost, about 2x
}

TEST(UnslottedTest, GoodSamaritanAlsoSurvivesTheTransform) {
  // The transform is protocol-agnostic: the Good Samaritan protocol (with
  // its much more intricate round structure) must also synchronize with
  // phase-shifted nodes.
  SimConfig config = basic_config(8, 2, 4, 17);
  config.N = 8;
  Simulation sim = unslotted_sim(config, GoodSamaritanProtocol::factory(), 2,
                                 std::make_unique<RandomSubsetAdversary>(2),
                                 std::make_unique<SimultaneousActivation>(4));
  const auto result = sim.run_until_synced(50000000);
  ASSERT_TRUE(result.synced);
  int leaders = 0;
  for (NodeId id = 0; id < 4; ++id) {
    if (sim.role(id) == Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(UnslottedTest, DeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    SimConfig config = basic_config(8, 2, 4, seed);
    config.N = 8;
    Simulation sim = unslotted_sim(
        config, TrapdoorProtocol::factory(), 2,
        std::make_unique<RandomSubsetAdversary>(2),
        std::make_unique<SimultaneousActivation>(4));
    return sim.run_until_synced(4000000).rounds;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(UnslottedTest, OneTickPerSlotIsTheSlottedEngine) {
  // T = 1 makes the adapter transparent: every tick opens and closes a
  // logical round, and the phase is 0 for every node. Stepped in lockstep
  // with a plain Simulation on the same seed, the two executions must agree
  // round for round under both cohorts.
  constexpr int kN = 6;
  constexpr RoundId kRounds = 3000;
  for (const EngineMode engine : {EngineMode::kDense, EngineMode::kSparse}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SimConfig config = basic_config(8, 2, kN, seed);
      config.N = 16;
      config.engine = engine;
      Simulation slotted(config, TrapdoorProtocol::factory(),
                         std::make_unique<RandomSubsetAdversary>(2),
                         std::make_unique<StaggeredUniformActivation>(kN, 200));
      Simulation ticked = unslotted_sim(
          config, TrapdoorProtocol::factory(), 1,
          std::make_unique<RandomSubsetAdversary>(2),
          std::make_unique<StaggeredUniformActivation>(kN, 200));
      for (RoundId r = 0; r < kRounds; ++r) {
        ASSERT_EQ(slotted.step(), ticked.step())
            << "seed " << seed << " round " << r;
        for (NodeId id = 0; id < kN; ++id) {
          ASSERT_EQ(slotted.output(id), ticked.output(id))
              << "seed " << seed << " round " << r << " node " << id;
          ASSERT_EQ(slotted.role(id), ticked.role(id))
              << "seed " << seed << " round " << r << " node " << id;
        }
      }
      EXPECT_TRUE(slotted.all_synced()) << "seed " << seed;
      EXPECT_EQ(slotted.energy().totals(), ticked.energy().totals())
          << "seed " << seed;
    }
  }
}

TEST(UnslottedTest, WhitespaceMasksReachUnslottedNodes) {
  // A listener hears the sole broadcaster on channel c iff c is in both
  // nodes' whitespace masks: a channel absent for either node carries
  // nothing between them, in every tick of every logical round. The masks
  // are drawn per seed; across these seeds some channel exists for the
  // broadcaster but not for the listener.
  constexpr int kF = 4;
  int absent_for_listener_only = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (Frequency c = 0; c < kF; ++c) {
      std::map<NodeId, FakeProtocol::Script> scripts;
      scripts[0].actions = {RoundAction::send(c, test_payload(5))};
      scripts[1].actions = {RoundAction::listen(c)};
      std::map<NodeId, FakeProtocol*> nodes;
      auto whitespace = std::make_unique<WhitespaceAdversary>(
          WhitespaceAdversary::Params{2, /*available=*/2, /*shared=*/1, 0});
      const WhitespaceAdversary* adversary = whitespace.get();
      Simulation sim = unslotted_sim(
          basic_config(kF, 0, 2, seed), FakeProtocol::factory(scripts, &nodes),
          2, std::move(whitespace),
          std::make_unique<SimultaneousActivation>(2));
      for (int i = 0; i < 12; ++i) sim.step();
      int heard = 0;
      for (const auto& r : nodes[1]->receptions) {
        if (r.has_value()) ++heard;
      }
      const auto fi = static_cast<size_t>(c);
      const bool sender_has = adversary->masks()[0][fi] != 0;
      const bool listener_has = adversary->masks()[1][fi] != 0;
      if (sender_has && !listener_has) ++absent_for_listener_only;
      EXPECT_EQ(heard > 0, sender_has && listener_has)
          << "seed " << seed << " channel " << c;
      if (!sender_has || !listener_has) {
        EXPECT_GT(sim.absences_total(), 0)
            << "seed " << seed << " channel " << c;
      }
    }
  }
  EXPECT_GT(absent_for_listener_only, 0);
}

TEST(UnslottedTest, DutyCycledProtocolSleepsUnslotted) {
  // RoundAction::sleep() is an ordinary held action: the duty-cycled
  // protocol powers its radio down for whole logical rounds, the ledger
  // bills those ticks as sleep, and the nodes still synchronize.
  SimConfig config = basic_config(8, 2, 4, 3);
  config.N = 16;
  Simulation sim = unslotted_sim(config, DutyCycleProtocol::factory(), 2,
                                 std::make_unique<RandomSubsetAdversary>(1),
                                 std::make_unique<SimultaneousActivation>(4));
  const auto result = sim.run_until_synced(4000000);
  ASSERT_TRUE(result.synced);
  const RunEnergy energy = sim.energy().totals();
  EXPECT_GT(energy.sleep_rounds, 0);
  EXPECT_LT(energy.awake_fraction(), 1.0);
}

}  // namespace
}  // namespace wsync
