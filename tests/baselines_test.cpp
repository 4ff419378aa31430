// Tests for the benchmark strategies: ProxSkip, RSU-L, DFL-DDS, DP,
// DynThresh, SimGossip, and their aggregation rules.
#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/dfl_dds.h"
#include "baselines/dp.h"
#include "baselines/dyn_thresh.h"
#include "baselines/proxskip.h"
#include "baselines/registry.h"
#include "baselines/rsul.h"
#include "baselines/sim_gossip.h"
#include "engine/fleet.h"

namespace lbchat::baselines {
namespace {

engine::ScenarioConfig small_scenario() {
  engine::ScenarioConfig cfg;
  cfg.num_vehicles = 4;
  cfg.collect_duration_s = 90.0;
  cfg.duration_s = 180.0;
  cfg.eval_interval_s = 60.0;
  cfg.coreset_size = 40;
  cfg.pair_cooldown_s = 30.0;
  cfg.world.num_background_cars = 6;
  cfg.world.num_pedestrians = 10;
  return cfg;
}

// ---------------------------------------------------------------- ProxSkip

TEST(ProxSkipTest, SynchronizationAlignsModelsWithoutLoss) {
  auto cfg = small_scenario();
  cfg.wireless_loss = false;
  ProxSkipOptions opts;
  opts.comm_probability = 1.0;  // synchronize every round
  engine::FleetSim sim{cfg, std::make_unique<ProxSkipStrategy>(opts)};
  (void)sim.run();
  // After a lossless sync every vehicle holds the same model.
  const auto p0 = sim.node(0).model.params();
  for (int v = 1; v < cfg.num_vehicles; ++v) {
    const auto pv = sim.node(v).model.params();
    for (std::size_t i = 0; i < p0.size(); i += 997) {
      EXPECT_FLOAT_EQ(p0[i], pv[i]) << "vehicle " << v << " diverged";
    }
  }
}

TEST(ProxSkipTest, ReducesLoss) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  engine::FleetSim sim{cfg, std::make_unique<ProxSkipStrategy>()};
  const auto m = sim.run();
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front() * 0.8);
}

TEST(ProxSkipTest, ModelSendCountingMatchesSyncRounds) {
  auto cfg = small_scenario();
  cfg.wireless_loss = false;
  ProxSkipOptions opts;
  opts.comm_probability = 1.0;
  engine::FleetSim sim{cfg, std::make_unique<ProxSkipStrategy>(opts)};
  const auto m = sim.run();
  // Every sync is an upload + download per vehicle; lossless -> all complete.
  EXPECT_GT(m.transfers.model_sends_started, 0);
  EXPECT_EQ(m.transfers.model_sends_started, m.transfers.model_sends_completed);
  EXPECT_EQ(m.transfers.model_sends_started % (2 * cfg.num_vehicles), 0);
}

TEST(ProxSkipTest, WirelessLossDropsSomeTransfers) {
  auto cfg = small_scenario();
  cfg.wireless_loss = true;
  cfg.duration_s = 300.0;
  ProxSkipOptions opts;
  opts.comm_probability = 1.0;
  engine::FleetSim sim{cfg, std::make_unique<ProxSkipStrategy>(opts)};
  const auto m = sim.run();
  ASSERT_GT(m.transfers.model_sends_started, 50);
  const double rate = m.transfers.model_receiving_rate();
  EXPECT_GT(rate, 0.4);
  EXPECT_LT(rate, 0.85);  // ~60% like the paper's infra approaches
}

// ---------------------------------------------------------------- RSU-L

TEST(RsuTest, PlacesRequestedRsusApart) {
  auto cfg = small_scenario();
  auto strategy = std::make_unique<RsuStrategy>();
  auto* raw = strategy.get();
  engine::FleetSim sim{cfg, std::move(strategy)};
  (void)sim.run();
  ASSERT_EQ(raw->rsu_positions().size(), 3u);
  // RSUs sit on intersections inside the map.
  for (const Vec2& p : raw->rsu_positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, sim.world().map().extent());
  }
}

TEST(RsuTest, VehiclesExchangeWithRsus) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  engine::FleetSim sim{cfg, std::make_unique<RsuStrategy>()};
  const auto m = sim.run();
  EXPECT_GT(m.transfers.model_sends_started, 0);
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front());
}

// ---------------------------------------------------------------- DFL-DDS

TEST(DflDdsTest, CompositionStartsAsIdentity) {
  auto cfg = small_scenario();
  auto strategy = std::make_unique<DflDdsStrategy>();
  auto* raw = strategy.get();
  engine::FleetSim sim{cfg, std::move(strategy)};
  // Setup runs inside run(); use a zero-duration run to probe initial state.
  auto cfg2 = cfg;
  cfg2.duration_s = 0.0;
  engine::FleetSim sim2{cfg2, std::make_unique<DflDdsStrategy>()};
  (void)sim.run();
  // After exchanges, compositions should no longer be pure.
  bool mixed = false;
  for (int v = 0; v < cfg.num_vehicles && !mixed; ++v) {
    const auto& comp = raw->composition(v);
    for (std::size_t k = 0; k < comp.size(); ++k) {
      if (static_cast<int>(k) != v && comp[k] > 1e-6) mixed = true;
    }
  }
  EXPECT_TRUE(mixed) << "DFL-DDS never diversified its data sources";
}

TEST(DflDdsTest, RunsSynchronousRoundsAndImproves) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  engine::FleetSim sim{cfg, std::make_unique<DflDdsStrategy>()};
  const auto m = sim.run();
  EXPECT_GT(m.transfers.model_sends_started, 0);
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front());
}

// ---------------------------------------------------------------- DP

TEST(DpTest, GossipExchangesAndImproves) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  engine::FleetSim sim{cfg, std::make_unique<DpStrategy>()};
  const auto m = sim.run();
  EXPECT_GT(m.transfers.model_sends_started, 0);
  EXPECT_EQ(m.transfers.coreset_sends_started, 0);  // models only
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front());
}

TEST(DpTest, DeterministicAcrossRuns) {
  const auto cfg = small_scenario();
  engine::FleetSim a{cfg, std::make_unique<DpStrategy>()};
  engine::FleetSim b{cfg, std::make_unique<DpStrategy>()};
  EXPECT_EQ(a.run().final_params[0], b.run().final_params[0]);
}

// ---------------------------------------------------------------- DynThresh

TEST(DynThreshTest, DivergenceBoundGatesCommunication) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  // A bound no RMS drift will ever reach: every vehicle stays silent.
  DynThreshOptions quiet;
  quiet.divergence_bound = 1e6;
  engine::FleetSim silent{cfg, std::make_unique<DynThreshStrategy>(quiet)};
  const auto m_silent = silent.run();
  EXPECT_EQ(m_silent.transfers.sessions_started, 0);
  EXPECT_EQ(m_silent.transfers.bytes_delivered, 0u);

  // A bound every training step crosses: the DP cadence, models only.
  DynThreshOptions chatty;
  chatty.divergence_bound = 1e-9;
  engine::FleetSim busy{cfg, std::make_unique<DynThreshStrategy>(chatty)};
  const auto m_busy = busy.run();
  EXPECT_GT(m_busy.transfers.sessions_started, 0);
  EXPECT_EQ(m_busy.transfers.coreset_sends_started, 0);
  EXPECT_LT(m_busy.loss_curve.values.back(), m_busy.loss_curve.values.front());
}

TEST(DynThreshTest, ResyncResetsDivergence) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  DynThreshOptions opts;
  opts.divergence_bound = 1e-9;  // force frequent resyncs
  auto strategy = std::make_unique<DynThreshStrategy>(opts);
  auto* raw = strategy.get();
  engine::FleetSim sim{cfg, std::move(strategy)};
  const auto m = sim.run();
  ASSERT_GT(m.transfers.model_sends_completed, 0) << "no resync ever completed";
  // The cached divergence is finite and non-negative for every vehicle, and
  // after a run with resyncs it is the drift since the last sync, not the
  // whole training history.
  for (int v = 0; v < cfg.num_vehicles; ++v) {
    EXPECT_GE(raw->divergence(v), 0.0);
    EXPECT_LT(raw->divergence(v), 1.0);
  }
}

// ---------------------------------------------------------------- SimGossip

TEST(SimGossipTest, SimilarityWeightIsMonotoneAndBounded) {
  const SimGossipStrategy s;
  // Identical models blend 50/50; weight decays monotonically as the cosine
  // falls away and never exceeds the plain-averaging cap.
  EXPECT_NEAR(s.weight_for_similarity(1.0), 0.5, 1e-12);
  double prev = 0.5;
  for (double c = 0.95; c >= -1.0; c -= 0.05) {
    const double w = s.weight_for_similarity(c);
    EXPECT_LT(w, prev) << "cosine " << c;
    EXPECT_GT(w, 0.0);
    prev = w;
  }
  // Temperature controls the softness: hotter = closer to plain averaging.
  SimGossipOptions hot;
  hot.temperature = 100.0;
  const SimGossipStrategy soft{hot};
  EXPECT_GT(soft.weight_for_similarity(0.0), 0.49);
}

TEST(SimGossipTest, GossipExchangesAndImproves) {
  auto cfg = small_scenario();
  cfg.duration_s = 240.0;
  engine::FleetSim sim{cfg, std::make_unique<SimGossipStrategy>()};
  const auto m = sim.run();
  EXPECT_GT(m.transfers.model_sends_started, 0);
  EXPECT_EQ(m.transfers.coreset_sends_started, 0);  // models only
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front());
}

// ------------------------------------------------- cross-strategy sanity

// The paper's approaches and ablations, by registry name.
constexpr const char* kPaperStrategies[] = {
    "ProxSkip", "RSU-L", "DFL-DDS",           "DP",
    "LbChat",   "SCO",   "LbChat(equal-comp)", "LbChat(avg-agg)",
};

/// An index into kPaperStrategies. gtest prints a parameter it has no printer
/// for as its raw bytes, and CMake puts those into the ctest name
/// (`.../4-byte object <03-00 00-00>`); a 4-byte index keeps the names stable.
struct StrategyIndex {
  std::int32_t i;
};

class EveryApproachTest : public ::testing::TestWithParam<StrategyIndex> {};

TEST_P(EveryApproachTest, RunsAndLearns) {
  const char* name = kPaperStrategies[GetParam().i];
  auto cfg = small_scenario();
  cfg.duration_s = 200.0;
  engine::FleetSim sim{cfg, registry().make(name)};
  const auto m = sim.run();
  ASSERT_GE(m.loss_curve.size(), 2u);
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front())
      << name << " failed to reduce the held-out loss";
  EXPECT_EQ(m.final_params.size(), static_cast<std::size_t>(cfg.num_vehicles));
}

INSTANTIATE_TEST_SUITE_P(All, EveryApproachTest,
                         ::testing::Values(StrategyIndex{0}, StrategyIndex{1}, StrategyIndex{2},
                                           StrategyIndex{3}, StrategyIndex{4}, StrategyIndex{5},
                                           StrategyIndex{6}, StrategyIndex{7}));

}  // namespace
}  // namespace lbchat::baselines
