// Tests for the fleet engine: data collection, session lifecycle, transfer
// accounting, deadlines, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.h"
#include "data/sample_io.h"
#include "engine/fleet.h"
#include "nn/int8_policy.h"

namespace lbchat::engine {
namespace {

/// A tiny scenario that keeps engine tests fast.
ScenarioConfig tiny_scenario() {
  ScenarioConfig cfg;
  cfg.num_vehicles = 4;
  cfg.collect_duration_s = 60.0;
  cfg.duration_s = 60.0;
  cfg.eval_interval_s = 30.0;
  cfg.eval_frames_per_vehicle = 4;
  cfg.world.num_background_cars = 6;
  cfg.world.num_pedestrians = 10;
  return cfg;
}

/// A do-nothing strategy (local training only).
class LocalOnlyStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "local-only"; }
  void on_tick(FleetSim&) override {}
};

/// A scripted strategy for session-mechanics tests.
class ScriptedStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "scripted"; }

  void on_tick(FleetSim& sim) override {
    if (started_) return;
    // Use the first idle pair currently in (close) range so the transfer has
    // a healthy link regardless of where the seed scattered the fleet.
    for (int a = 0; a < sim.num_vehicles() && !started_; ++a) {
      for (int b = a + 1; b < sim.num_vehicles() && !started_; ++b) {
        if (!sim.is_idle(a) || !sim.is_idle(b)) continue;
        if (sim.pair_distance(a, b) > sim.config().radio.max_range_m * 0.5) continue;
        started_ = true;
        PairSession& s = sim.start_session(a, b);
        if (deadline_s > 0.0) s.deadline_s = sim.time() + deadline_s;
        sim.queue_transfer(s, a, bytes_to_send, {StageTag::kModel, a, 0});
      }
    }
  }
  void on_transfer_complete(FleetSim&, PairSession&, const StageTag& tag) override {
    completed_tags.push_back(tag.kind);
  }
  void on_session_aborted(FleetSim&, PairSession&) override { aborted = true; }

  std::size_t bytes_to_send = 1024;
  double deadline_s = -1.0;
  std::vector<int> completed_tags;
  bool aborted = false;

 private:
  bool started_ = false;
};

TEST(FleetSimTest, NullStrategyRejected) {
  EXPECT_THROW(FleetSim(tiny_scenario(), nullptr), std::invalid_argument);
}

TEST(FleetSimTest, CollectPhasePopulatesDatasets) {
  auto cfg = tiny_scenario();
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics m = sim.run();
  const int frames = static_cast<int>(cfg.collect_duration_s * cfg.collect_fps);
  for (int v = 0; v < cfg.num_vehicles; ++v) {
    auto& node = sim.node(v);
    EXPECT_GT(node.dataset.size(), static_cast<std::size_t>(frames) * 7 / 10);
    EXPECT_GT(node.validation.size(), 0u);
    EXPECT_LT(node.validation.size(), node.dataset.size());
  }
  EXPECT_EQ(sim.eval_set().size(),
            static_cast<std::size_t>(cfg.num_vehicles * cfg.eval_frames_per_vehicle));
  EXPECT_GT(m.train_steps, 0);
}

TEST(FleetSimTest, CommandBalancedWeights) {
  auto cfg = tiny_scenario();
  cfg.collect_duration_s = 240.0;  // enough frames for all commands to appear
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  (void)sim.run();
  // Rare commands carry higher w(d) on average than the dominant kFollow.
  auto& ds = sim.node(0).dataset;
  double follow_w = 0.0;
  int follow_n = 0;
  double turn_w = 0.0;
  int turn_n = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds[i].command == data::Command::kFollow) {
      follow_w += ds[i].weight;
      ++follow_n;
    } else {
      turn_w += ds[i].weight;
      ++turn_n;
    }
  }
  if (turn_n == 0) GTEST_SKIP() << "no turn frames in this tiny run";
  EXPECT_GT(turn_w / turn_n, follow_w / follow_n);
}

TEST(FleetSimTest, LossCurveRecordedAtIntervals) {
  auto cfg = tiny_scenario();
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics m = sim.run();
  ASSERT_GE(m.loss_curve.size(), 3u);  // t=0, t=30, t=60
  EXPECT_DOUBLE_EQ(m.loss_curve.times.front(), 0.0);
  EXPECT_DOUBLE_EQ(m.loss_curve.times.back(), cfg.duration_s);
  for (const double v : m.loss_curve.values) EXPECT_GT(v, 0.0);
}

TEST(FleetSimTest, LocalTrainingReducesLoss) {
  auto cfg = tiny_scenario();
  cfg.duration_s = 240.0;
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics m = sim.run();
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front() * 0.8);
}

TEST(FleetSimTest, DeterministicAcrossRuns) {
  const auto cfg = tiny_scenario();
  FleetSim a{cfg, std::make_unique<LocalOnlyStrategy>()};
  FleetSim b{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics ma = a.run();
  const RunMetrics mb = b.run();
  ASSERT_EQ(ma.loss_curve.size(), mb.loss_curve.size());
  for (std::size_t i = 0; i < ma.loss_curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(ma.loss_curve.values[i], mb.loss_curve.values[i]);
  }
  ASSERT_EQ(ma.final_params.size(), mb.final_params.size());
  EXPECT_EQ(ma.final_params[0], mb.final_params[0]);
}

TEST(FleetSimTest, BitDeterministicAcrossThreadCounts) {
  // Every vehicle owns its Rng/ParamStore/optimizer, so a pooled run must be
  // bit-identical to the sequential one — not merely statistically close.
  auto cfg = tiny_scenario();
  cfg.num_threads = 1;
  FleetSim seq{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics ms = seq.run();
  cfg.num_threads = 4;
  FleetSim par{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics mp = par.run();

  EXPECT_EQ(ms.train_steps, mp.train_steps);
  ASSERT_EQ(ms.loss_curve.size(), mp.loss_curve.size());
  for (std::size_t i = 0; i < ms.loss_curve.size(); ++i) {
    EXPECT_EQ(ms.loss_curve.times[i], mp.loss_curve.times[i]);
    EXPECT_EQ(ms.loss_curve.values[i], mp.loss_curve.values[i]) << "eval point " << i;
  }
  ASSERT_EQ(ms.final_params.size(), mp.final_params.size());
  for (std::size_t v = 0; v < ms.final_params.size(); ++v) {
    EXPECT_EQ(ms.final_params[v], mp.final_params[v]) << "vehicle " << v;
  }
  EXPECT_EQ(ms.transfers.bytes_delivered, mp.transfers.bytes_delivered);
}

TEST(FleetSimTest, CollectPhaseIdenticalAcrossLaneCounts) {
  // The collection phase renders each frame's vehicles on the pool: every
  // dataset, validation split and the shared eval set hold the same bytes
  // at 1, 2 and 3 lanes (3 lanes split the 5 vehicles unevenly).
  auto cfg = tiny_scenario();
  cfg.num_vehicles = 5;
  const auto collected = [&](int lanes) {
    cfg.num_threads = lanes;
    FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
    sim.prepare();
    ByteWriter w;
    Save io{w};
    const auto put = [&](const data::Sample& s) { data::fields(io, s, cfg.policy.bev); };
    for (int v = 0; v < sim.num_vehicles(); ++v) {
      const VehicleNode& node = sim.node(v);
      io.exact_count(node.dataset.size(), "dataset");
      for (const data::Sample& s : node.dataset.samples()) put(s);
      io.exact_count(node.validation.size(), "validation");
      for (const data::Sample& s : node.validation) put(s);
    }
    io.exact_count(sim.eval_set().size(), "eval");
    for (const data::Sample& s : sim.eval_set()) put(s);
    return w.bytes();
  };
  const std::vector<std::uint8_t> one = collected(1);
  EXPECT_GT(one.size(), 10000u);
  EXPECT_EQ(collected(2), one);
  EXPECT_EQ(collected(3), one);
}

TEST(FleetSimTest, MeanEvalLossMatchesRecordedCurve) {
  // mean_eval_loss() and the recorded loss curve reduce one per-vehicle
  // sweep: at an eval point they agree bit for bit, float or int8, at any
  // lane count (3 lanes split the 4 vehicles unevenly).
  for (const bool int8 : {false, true}) {
    for (const int lanes : {1, 3}) {
      SCOPED_TRACE(testing::Message() << "int8=" << int8 << " lanes=" << lanes);
      auto cfg = tiny_scenario();
      cfg.int8_eval.enabled = int8;
      cfg.num_threads = lanes;
      FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
      sim.prepare();  // records t = 0
      const double initial = sim.mean_eval_loss();
      sim.run_until(45.0);
      const double trained = sim.mean_eval_loss();
      // The last eval point was t = 30, so finalize() records t = 60 with
      // the models as they stand now.
      const RunMetrics m = sim.finalize();
      ASSERT_EQ(m.loss_curve.size(), 3u);
      EXPECT_EQ(m.loss_curve.values.front(), initial);
      EXPECT_EQ(m.loss_curve.values.back(), trained);
      EXPECT_NE(initial, trained);
    }
  }
}

TEST(FleetSimTest, PerVehicleEvalLossIsEachModelsOwn) {
  // The eval sweep scores one model for all vehicles still bytewise equal to
  // vehicle 0's (every vehicle at t = 0) and copies its loss. Each recorded
  // per-vehicle loss must still be that vehicle's own model's, at t = 0,
  // after local training has made the models diverge, and with one model
  // copied back to vehicle 0's; float or int8, at 1 and 3 lanes.
  for (const bool int8 : {false, true}) {
    for (const int lanes : {1, 3}) {
      SCOPED_TRACE(testing::Message() << "int8=" << int8 << " lanes=" << lanes);
      auto cfg = tiny_scenario();
      cfg.int8_eval.enabled = int8;
      cfg.num_threads = lanes;
      FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
      const auto own_losses = [&] {
        std::vector<double> out;
        for (int v = 0; v < sim.num_vehicles(); ++v) {
          const nn::DrivingPolicy& model = sim.node(v).model;
          out.push_back(int8 ? nn::Int8Policy{model}.weighted_loss(sim.eval_set())
                             : model.weighted_loss(sim.eval_set()));
        }
        return out;
      };
      sim.prepare();  // records t = 0
      const std::vector<double> initial = own_losses();
      EXPECT_EQ(std::set<double>(initial.begin(), initial.end()).size(), 1u);
      sim.run_until(45.0);
      const auto first = sim.node(0).model.params();
      std::copy(first.begin(), first.end(), sim.node(2).model.params().begin());
      const std::vector<double> trained = own_losses();
      EXPECT_GT(std::set<double>(trained.begin(), trained.end()).size(), 2u);
      // finalize() records t = 60 with the models as they stand now.
      const RunMetrics m = sim.finalize();
      ASSERT_EQ(m.per_vehicle_loss.size(), initial.size());
      for (std::size_t v = 0; v < initial.size(); ++v) {
        EXPECT_EQ(m.per_vehicle_loss[v].values.front(), initial[v]) << v;
        EXPECT_EQ(m.per_vehicle_loss[v].values.back(), trained[v]) << v;
      }
    }
  }
}

TEST(FleetSimTest, ScriptedTransferCompletes) {
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  auto strategy = std::make_unique<ScriptedStrategy>();
  auto* raw = strategy.get();
  raw->bytes_to_send = 64 * 1024;  // tiny: completes within one contact
  FleetSim sim{cfg, std::move(strategy)};
  const RunMetrics m = sim.run();
  EXPECT_EQ(m.transfers.model_sends_started, 1);
  EXPECT_EQ(m.transfers.model_sends_completed, 1);
  ASSERT_EQ(raw->completed_tags.size(), 1u);
  EXPECT_EQ(raw->completed_tags[0], StageTag::kModel);
  EXPECT_FALSE(raw->aborted);
}

TEST(FleetSimTest, DeadlineAbortsSlowTransfer) {
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  auto strategy = std::make_unique<ScriptedStrategy>();
  auto* raw = strategy.get();
  raw->bytes_to_send = 500ull * 1024 * 1024;  // ~2 minutes at 31 Mbps
  raw->deadline_s = 5.0;
  FleetSim sim{cfg, std::move(strategy)};
  const RunMetrics m = sim.run();
  EXPECT_TRUE(raw->aborted);
  EXPECT_EQ(m.transfers.model_sends_started, 1);
  EXPECT_EQ(m.transfers.model_sends_completed, 0);
  EXPECT_EQ(m.transfers.sessions_aborted, 1);
}

TEST(FleetSimTest, SessionTimeoutIsEnforced) {
  auto cfg = tiny_scenario();
  cfg.duration_s = 150.0;
  cfg.session_timeout_s = 20.0;
  auto strategy = std::make_unique<ScriptedStrategy>();
  auto* raw = strategy.get();
  raw->bytes_to_send = 500ull * 1024 * 1024;
  FleetSim sim{cfg, std::move(strategy)};
  (void)sim.run();
  EXPECT_TRUE(raw->aborted);
}

TEST(FleetSimTest, CloseWithPendingStagesDropsThem) {
  // close() inside on_transfer_complete with stages still queued must drop
  // the remainder: no further completion callbacks, and both endpoints are
  // freed for new sessions.
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  class TwoStage final : public Strategy {
   public:
    [[nodiscard]] std::string_view name() const override { return "two-stage"; }
    void on_tick(FleetSim& sim) override {
      if (started_) return;
      for (int a = 0; a < sim.num_vehicles() && !started_; ++a) {
        for (int b = a + 1; b < sim.num_vehicles() && !started_; ++b) {
          if (!sim.is_idle(a) || !sim.is_idle(b)) continue;
          if (sim.pair_distance(a, b) > sim.config().radio.max_range_m * 0.5) continue;
          started_ = true;
          pair_a = a;
          pair_b = b;
          PairSession& s = sim.start_session(a, b);
          sim.queue_transfer(s, a, 64 * 1024, {StageTag::kModel, a, 0});
          sim.queue_transfer(s, b, 64 * 1024, {StageTag::kModel, b, 1});
        }
      }
    }
    void on_transfer_complete(FleetSim&, PairSession& s, const StageTag&) override {
      ++completions;
      s.close();
    }
    int completions = 0;
    int pair_a = -1;
    int pair_b = -1;

   private:
    bool started_ = false;
  };
  auto strategy = std::make_unique<TwoStage>();
  auto* raw = strategy.get();
  FleetSim sim{cfg, std::move(strategy)};
  const RunMetrics m = sim.run();
  ASSERT_GE(raw->pair_a, 0);
  EXPECT_EQ(raw->completions, 1);
  EXPECT_EQ(m.transfers.model_sends_started, 2);
  EXPECT_EQ(m.transfers.model_sends_completed, 1);
  EXPECT_TRUE(sim.is_idle(raw->pair_a));
  EXPECT_TRUE(sim.is_idle(raw->pair_b));
}

TEST(FleetSimTest, AbortDrainsQueueBeforeCallbackAndFreesVehicles) {
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  class AbortProbe final : public Strategy {
   public:
    [[nodiscard]] std::string_view name() const override { return "abort-probe"; }
    void on_tick(FleetSim& sim) override {
      if (started_) return;
      for (int a = 0; a < sim.num_vehicles() && !started_; ++a) {
        for (int b = a + 1; b < sim.num_vehicles() && !started_; ++b) {
          if (!sim.is_idle(a) || !sim.is_idle(b)) continue;
          if (sim.pair_distance(a, b) > sim.config().radio.max_range_m * 0.5) continue;
          started_ = true;
          pair_a = a;
          pair_b = b;
          PairSession& s = sim.start_session(a, b);
          s.deadline_s = sim.time() + 5.0;
          sim.queue_transfer(s, a, 500ull * 1024 * 1024, {StageTag::kModel, a, 0});
        }
      }
    }
    void on_transfer_complete(FleetSim&, PairSession&, const StageTag&) override {
      ++completions;
    }
    void on_session_aborted(FleetSim&, PairSession& s) override {
      ++aborts;
      // The engine drains and closes the session before notifying.
      queue_was_empty = s.idle();
      session_was_closed = s.closed();
    }
    int completions = 0;
    int aborts = 0;
    int pair_a = -1;
    int pair_b = -1;
    bool queue_was_empty = false;
    bool session_was_closed = false;

   private:
    bool started_ = false;
  };
  auto strategy = std::make_unique<AbortProbe>();
  auto* raw = strategy.get();
  FleetSim sim{cfg, std::move(strategy)};
  const RunMetrics m = sim.run();
  ASSERT_GE(raw->pair_a, 0);
  EXPECT_EQ(raw->aborts, 1);
  EXPECT_EQ(raw->completions, 0);
  EXPECT_TRUE(raw->queue_was_empty);
  EXPECT_TRUE(raw->session_was_closed);
  EXPECT_EQ(m.transfers.sessions_aborted, 1);
  // Aborted endpoints are reaped and become available again.
  EXPECT_TRUE(sim.is_idle(raw->pair_a));
  EXPECT_TRUE(sim.is_idle(raw->pair_b));
}

TEST(FleetSimTest, BusyVehiclesCannotStartSecondSession) {
  auto cfg = tiny_scenario();
  class DoubleStart final : public Strategy {
   public:
    [[nodiscard]] std::string_view name() const override { return "double"; }
    void on_tick(FleetSim& sim) override {
      if (done_ || !sim.in_range(0, 1)) return;
      done_ = true;
      PairSession& s = sim.start_session(0, 1);
      sim.queue_transfer(s, 0, 10ull * 1024 * 1024, {StageTag::kOther, 0, 0});
      EXPECT_FALSE(sim.is_idle(0));
      EXPECT_FALSE(sim.is_idle(1));
      EXPECT_THROW(sim.start_session(0, 2), std::logic_error);
    }

   private:
    bool done_ = false;
  };
  FleetSim sim{cfg, std::make_unique<DoubleStart>()};
  (void)sim.run();
}

TEST(FleetSimTest, InfraTransfersAlwaysSucceedWithoutWirelessLoss) {
  auto cfg = tiny_scenario();
  cfg.wireless_loss = false;
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  Rng rng{1};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(sim.infra_transfer_succeeds(rng));
}

TEST(FleetSimTest, InfraTransfersFailSometimesWithWirelessLoss) {
  auto cfg = tiny_scenario();
  cfg.wireless_loss = true;
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  Rng rng{1};
  int ok = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) ok += sim.infra_transfer_succeeds(rng) ? 1 : 0;
  // Expected success = 1 - mean(loss table) ~ 0.6, the paper's infra rate.
  EXPECT_GT(ok, n / 2);
  EXPECT_LT(ok, n * 8 / 10);
}

TEST(FleetSimTest, CooldownBlocksImmediateRechat) {
  auto cfg = tiny_scenario();
  cfg.pair_cooldown_s = 1000.0;
  class OneShot final : public Strategy {
   public:
    [[nodiscard]] std::string_view name() const override { return "oneshot"; }
    void on_tick(FleetSim& sim) override {
      if (!sim.in_range(0, 1) || !sim.is_idle(0) || !sim.is_idle(1)) return;
      if (!sim.cooldown_passed(0, 1)) return;
      PairSession& s = sim.start_session(0, 1);
      sim.queue_transfer(s, 0, 1000, {StageTag::kOther, 0, 0});
      ++sessions;
    }
    int sessions = 0;
  };
  auto strategy = std::make_unique<OneShot>();
  auto* raw = strategy.get();
  FleetSim sim{cfg, std::move(strategy)};
  (void)sim.run();
  EXPECT_LE(raw->sessions, 1);
}

/// Chats a rotating "hub" vehicle with everyone else, so pair churn touches
/// every distinct pair over a long run — the worst case for the pair maps.
class RollingChatStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "rolling-chat"; }
  void on_tick(FleetSim& sim) override {
    const int n = sim.num_vehicles();
    const int hub = static_cast<int>(sim.time() / 30.0) % n;
    for (int v = 0; v < n; ++v) {
      if (v == hub || !sim.is_idle(hub) || !sim.is_idle(v)) continue;
      if (!sim.in_range(hub, v) || !sim.cooldown_passed(hub, v)) continue;
      sim.start_session(hub, v);  // no stages: drains and closes immediately
      pairs_seen.insert(hub < v ? hub * 1000 + v : v * 1000 + hub);
    }
  }
  std::set<int> pairs_seen;
};

TEST(FleetSimTest, PairMapsPlateauUnderLongChurn) {
  // Regression for unbounded last_chat_/pair_backoff_ growth: over a long
  // run that chats across every distinct pair, the maps must plateau at the
  // recently-active working set instead of accumulating one entry per pair
  // ever seen (they are pruned once a pair's cooldown has fully elapsed).
  ScenarioConfig cfg;
  cfg.num_vehicles = 10;
  cfg.collect_duration_s = 10.0;
  cfg.collect_fps = 1.0;
  cfg.eval_frames_per_vehicle = 1;
  cfg.duration_s = 600.0;
  cfg.train_interval_s = 1e9;  // isolate session churn: no training...
  cfg.eval_interval_s = 1e9;   // ...and no periodic evaluation
  cfg.pair_cooldown_s = 5.0;
  cfg.radio.max_range_m = 1e9;  // everyone is always in range
  cfg.world.num_background_cars = 2;
  cfg.world.num_pedestrians = 2;
  auto strategy = std::make_unique<RollingChatStrategy>();
  RollingChatStrategy* rolling = strategy.get();
  FleetSim sim{cfg, std::move(strategy)};
  sim.prepare();
  std::size_t max_last_chat = 0;
  std::size_t max_backoff = 0;
  for (double t = 30.0; t <= cfg.duration_s; t += 30.0) {
    sim.run_until(t);
    const auto [last_chat, backoff] = sim.pair_map_sizes();
    max_last_chat = std::max(max_last_chat, last_chat);
    max_backoff = std::max(max_backoff, backoff);
  }
  const std::size_t distinct_pairs = rolling->pairs_seen.size();
  // The rotation really did touch every pair of the 10-vehicle fleet...
  EXPECT_EQ(distinct_pairs, 45u);
  // ...yet the maps stayed bounded by the recently-active set, not by the
  // number of pairs ever seen. Between prunes (every 60 s) at most two hub
  // windows of 9 pairs each are recorded, plus a straggler at the boundary.
  EXPECT_LT(max_last_chat, distinct_pairs);
  EXPECT_LE(max_last_chat, 3u * static_cast<std::size_t>(cfg.num_vehicles));
  EXPECT_EQ(max_backoff, 0u);  // chat_backoff off: never populated
}

TEST(FleetSimTest, AssistInfoReflectsVehicleState) {
  auto cfg = tiny_scenario();
  FleetSim sim{cfg, std::make_unique<LocalOnlyStrategy>()};
  const auto info = sim.assist_info(2);
  EXPECT_EQ(info.pos, sim.world().vehicle(2).pos);
  EXPECT_NE(info.route, nullptr);
  const auto blind = sim.assist_info(2, /*share_route=*/false);
  EXPECT_EQ(blind.route, nullptr);
}

}  // namespace
}  // namespace lbchat::engine
