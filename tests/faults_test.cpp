// Tests for the deterministic fault-injection subsystem: the FaultInjector's
// three fault classes in isolation, and the engine-level guarantees —
// default-off configs are bit-inert, fault runs are bit-deterministic at any
// thread count, churn pauses (but never destroys) vehicle state, blackouts
// are attributed to aborts, and chat backoff bounds retry frequency.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/frame.h"
#include "engine/fleet.h"

namespace lbchat::engine {
namespace {

/// A tiny scenario that keeps fault tests fast (mirrors engine_test).
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

/// Chats continuously: every tick it pairs up idle in-range vehicles and
/// sends one framed model payload, verifying the envelope on delivery — a
/// miniature of what LbChat and the gossip baselines do, without their
/// training machinery, so session/fault mechanics are isolated.
class ChattyStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "chatty"; }

  void on_tick(FleetSim& sim) override {
    for (int a = 0; a < sim.num_vehicles(); ++a) {
      for (int b = a + 1; b < sim.num_vehicles(); ++b) {
        if (!sim.is_idle(a) || !sim.is_idle(b)) continue;
        if (!sim.in_range(a, b) || !sim.cooldown_passed(a, b)) continue;
        PairSession& s = sim.start_session(a, b);
        const std::vector<std::uint8_t> body{1, 2, 3, 4, 5, 6, 7, 8};
        sim.queue_transfer(s, a, bytes_to_send, {StageTag::kModel, a, 0},
                           frame::encode(frame::FrameType::kModel, body));
      }
    }
  }

  void on_transfer_complete(FleetSim& sim, PairSession& s, const StageTag& tag) override {
    const auto dec = frame::decode(s.delivered_payload());
    if (dec.ok()) {
      ++accepted;
      sim.note_pair_success(s.vehicle_a(), s.vehicle_b());
    } else {
      ++rejected;
      ++sim.stats().frames_rejected;
      if (tag.kind == StageTag::kModel) ++sim.stats().model_frames_rejected;
      sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
    }
    s.close();
  }

  void on_session_aborted(FleetSim& sim, PairSession& s) override {
    sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
  }

  std::size_t bytes_to_send = 64 * 1024;
  int accepted = 0;
  int rejected = 0;
};

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DefaultsStayInert) {
  FaultInjector inj{FaultConfig{}, 1, 1000.0, 4};
  EXPECT_FALSE(FaultConfig{}.any_faults());
  for (int t = 1; t <= 200; ++t) {
    inj.advance(0.5 * t, 0.5);
    EXPECT_EQ(inj.active_bursts(), 0);
    EXPECT_EQ(inj.offline_count(), 0);
    EXPECT_TRUE(inj.went_offline().empty());
    EXPECT_EQ(inj.extra_loss(Vec2{0.0, 0.0}, Vec2{500.0, 500.0}), 0.0);
    EXPECT_FALSE(inj.corrupt_delivery(90.0, 180.0));
  }
}

TEST(FaultInjectorTest, BurstsSpawnAndExpire) {
  FaultConfig cfg;
  cfg.burst_rate_per_min = 30.0;
  cfg.burst_duration_s = 4.0;
  cfg.burst_radius_m = 200.0;
  cfg.burst_extra_loss = 0.6;
  FaultInjector inj{cfg, 7, 1000.0, 4};
  int max_active = 0;
  bool saw_expiry = false;
  int prev = 0;
  for (int t = 1; t <= 240; ++t) {
    inj.advance(0.5 * t, 0.5);
    max_active = std::max(max_active, inj.active_bursts());
    if (inj.active_bursts() < prev) saw_expiry = true;
    prev = inj.active_bursts();
    // extra_loss is the max over covering bursts, clamped to the config.
    const double loss = inj.extra_loss(Vec2{500.0, 500.0}, Vec2{500.0, 500.0});
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, cfg.burst_extra_loss);
  }
  EXPECT_GT(max_active, 0);
  EXPECT_TRUE(saw_expiry);
}

TEST(FaultInjectorTest, ChurnTogglesOfflineAndRecovers) {
  FaultConfig cfg;
  cfg.churn_rate_per_min = 30.0;
  cfg.churn_offline_mean_s = 5.0;
  const int n = 8;
  FaultInjector inj{cfg, 11, 1000.0, n};
  int drop_events = 0;
  int recoveries = 0;
  std::vector<bool> was_offline(n, false);
  for (int t = 1; t <= 240; ++t) {
    inj.advance(0.5 * t, 0.5);
    drop_events += static_cast<int>(inj.went_offline().size());
    int offline_now = 0;
    for (int v = 0; v < n; ++v) {
      if (inj.offline(v)) ++offline_now;
      if (was_offline[v] && !inj.offline(v)) ++recoveries;
      was_offline[v] = inj.offline(v);
    }
    EXPECT_EQ(offline_now, inj.offline_count());
    for (const int v : inj.went_offline()) EXPECT_TRUE(inj.offline(v));
  }
  EXPECT_GT(drop_events, 0);
  EXPECT_GT(recoveries, 0);
}

TEST(FaultInjectorTest, CorruptDeliveryScalesWithDistance) {
  {
    FaultConfig cfg;
    cfg.corrupt_prob_near = 0.0;
    cfg.corrupt_prob_far = 1.0;
    FaultInjector inj{cfg, 3, 1000.0, 2};
    for (int i = 0; i < 200; ++i) {
      EXPECT_FALSE(inj.corrupt_delivery(0.0, 180.0));
      EXPECT_TRUE(inj.corrupt_delivery(180.0, 180.0));
    }
  }
  {
    FaultConfig cfg;
    cfg.corrupt_prob_near = 0.1;
    cfg.corrupt_prob_far = 0.9;
    FaultInjector inj{cfg, 3, 1000.0, 2};
    int near_hits = 0;
    int far_hits = 0;
    for (int i = 0; i < 500; ++i) {
      near_hits += inj.corrupt_delivery(10.0, 180.0) ? 1 : 0;
      far_hits += inj.corrupt_delivery(170.0, 180.0) ? 1 : 0;
    }
    EXPECT_GT(far_hits, near_hits);
  }
}

TEST(FaultInjectorTest, CorruptPayloadFlipsBetweenOneAndFourBits) {
  FaultConfig cfg;
  cfg.corrupt_prob_near = 1.0;
  cfg.corrupt_prob_far = 1.0;
  FaultInjector inj{cfg, 5, 1000.0, 2};
  const std::vector<std::uint8_t> original(32, 0xA5);
  for (int trial = 0; trial < 50; ++trial) {
    auto damaged = original;
    inj.corrupt_payload(damaged);
    int flipped = 0;
    for (std::size_t i = 0; i < damaged.size(); ++i) {
      flipped += std::popcount(static_cast<std::uint8_t>(damaged[i] ^ original[i]));
    }
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 4);
  }
  std::vector<std::uint8_t> empty;
  inj.corrupt_payload(empty);  // no-op, must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjectorTest, SameSeedSameFaultSequence) {
  FaultConfig cfg;
  cfg.burst_rate_per_min = 10.0;
  cfg.burst_duration_s = 6.0;
  cfg.churn_rate_per_min = 20.0;
  cfg.churn_offline_mean_s = 8.0;
  cfg.corrupt_prob_near = 0.2;
  cfg.corrupt_prob_far = 0.7;
  FaultInjector x{cfg, 42, 1000.0, 6};
  FaultInjector y{cfg, 42, 1000.0, 6};
  for (int t = 1; t <= 240; ++t) {
    x.advance(0.5 * t, 0.5);
    y.advance(0.5 * t, 0.5);
    EXPECT_EQ(x.active_bursts(), y.active_bursts());
    EXPECT_EQ(x.offline_count(), y.offline_count());
    EXPECT_EQ(x.went_offline(), y.went_offline());
    const Vec2 p{300.0, 700.0};
    const Vec2 q{650.0, 200.0};
    EXPECT_EQ(x.extra_loss(p, q), y.extra_loss(p, q));
    EXPECT_EQ(x.corrupt_delivery(120.0, 180.0), y.corrupt_delivery(120.0, 180.0));
  }
}

// ---------------------------------------------------------------------------
// Engine-level guarantees
// ---------------------------------------------------------------------------

TEST(FaultEngineTest, DefaultFaultConfigIsBitInert) {
  // With every fault rate at zero, the injector must consume no randomness
  // and perturb nothing: changing inert knobs (durations, radii, backoff
  // parameters) must leave the run bit-identical, and every fault counter
  // must stay at zero.
  auto cfg = tiny_scenario();
  FleetSim plain{cfg, std::make_unique<ChattyStrategy>()};
  const RunMetrics mp = plain.run();

  auto cfg2 = cfg;
  cfg2.faults.burst_duration_s = 999.0;
  cfg2.faults.burst_radius_m = 1.0;
  cfg2.faults.burst_extra_loss = 0.25;
  cfg2.faults.churn_offline_mean_s = 77.0;
  cfg2.faults.backoff_base = 9.0;
  cfg2.faults.backoff_max_exp = 9;
  ASSERT_FALSE(cfg2.faults.any_faults());
  FleetSim tweaked{cfg2, std::make_unique<ChattyStrategy>()};
  const RunMetrics mt = tweaked.run();

  ASSERT_EQ(mp.loss_curve.size(), mt.loss_curve.size());
  for (std::size_t i = 0; i < mp.loss_curve.size(); ++i) {
    EXPECT_EQ(mp.loss_curve.values[i], mt.loss_curve.values[i]);
  }
  ASSERT_EQ(mp.final_params.size(), mt.final_params.size());
  for (std::size_t v = 0; v < mp.final_params.size(); ++v) {
    EXPECT_EQ(mp.final_params[v], mt.final_params[v]) << "vehicle " << v;
  }
  EXPECT_EQ(mp.transfers.bytes_delivered, mt.transfers.bytes_delivered);
  EXPECT_EQ(mp.transfers.sessions_started, mt.transfers.sessions_started);
  for (const RunMetrics* m : {&mp, &mt}) {
    EXPECT_EQ(m->transfers.frames_rejected, 0);
    EXPECT_EQ(m->transfers.model_frames_rejected, 0);
    EXPECT_EQ(m->transfers.sessions_lost_to_blackout, 0);
    EXPECT_EQ(m->transfers.backoff_retries, 0);
    EXPECT_EQ(m->transfers.offline_vehicle_seconds, 0.0);
  }
}

TEST(FaultEngineTest, FaultRunsBitDeterministicAcrossThreadCounts) {
  // All fault classes live on the single-threaded tick path, so a fault-laden
  // run must stay bit-identical for any worker-lane count.
  auto cfg = tiny_scenario();
  cfg.pair_cooldown_s = 10.0;
  cfg.faults.burst_rate_per_min = 2.0;
  cfg.faults.burst_duration_s = 10.0;
  cfg.faults.churn_rate_per_min = 1.0;
  cfg.faults.churn_offline_mean_s = 15.0;
  cfg.faults.corrupt_prob_near = 0.2;
  cfg.faults.corrupt_prob_far = 0.6;
  cfg.faults.chat_backoff = true;

  cfg.num_threads = 1;
  FleetSim seq{cfg, std::make_unique<ChattyStrategy>()};
  const RunMetrics ms = seq.run();
  cfg.num_threads = 4;
  FleetSim par{cfg, std::make_unique<ChattyStrategy>()};
  const RunMetrics mpar = par.run();

  EXPECT_EQ(ms.train_steps, mpar.train_steps);
  ASSERT_EQ(ms.loss_curve.size(), mpar.loss_curve.size());
  for (std::size_t i = 0; i < ms.loss_curve.size(); ++i) {
    EXPECT_EQ(ms.loss_curve.values[i], mpar.loss_curve.values[i]) << "eval point " << i;
  }
  ASSERT_EQ(ms.final_params.size(), mpar.final_params.size());
  for (std::size_t v = 0; v < ms.final_params.size(); ++v) {
    EXPECT_EQ(ms.final_params[v], mpar.final_params[v]) << "vehicle " << v;
  }
  EXPECT_EQ(ms.transfers.bytes_delivered, mpar.transfers.bytes_delivered);
  EXPECT_EQ(ms.transfers.sessions_started, mpar.transfers.sessions_started);
  EXPECT_EQ(ms.transfers.sessions_aborted, mpar.transfers.sessions_aborted);
  EXPECT_EQ(ms.transfers.frames_rejected, mpar.transfers.frames_rejected);
  EXPECT_EQ(ms.transfers.model_frames_rejected, mpar.transfers.model_frames_rejected);
  EXPECT_EQ(ms.transfers.sessions_lost_to_blackout, mpar.transfers.sessions_lost_to_blackout);
  EXPECT_EQ(ms.transfers.backoff_retries, mpar.transfers.backoff_retries);
  EXPECT_EQ(ms.transfers.offline_vehicle_seconds, mpar.transfers.offline_vehicle_seconds);
}

TEST(FaultEngineTest, ChurnPausesTrainingAndAccountsOfflineTime) {
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  FleetSim clean{cfg, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics mc = clean.run();

  auto churny = cfg;
  churny.faults.churn_rate_per_min = 6.0;
  churny.faults.churn_offline_mean_s = 20.0;
  FleetSim sim{churny, std::make_unique<LocalOnlyStrategy>()};
  const RunMetrics mf = sim.run();

  EXPECT_GT(mf.transfers.offline_vehicle_seconds, 0.0);
  // Offline vehicles skip local training; they rejoin with state intact, so
  // training still happens (steps > 0) but fewer than the clean run.
  EXPECT_GT(mf.train_steps, 0);
  EXPECT_LT(mf.train_steps, mc.train_steps);
  // Loss remains finite/positive: churned vehicles kept their models.
  for (const double v : mf.loss_curve.values) EXPECT_GT(v, 0.0);
}

TEST(FaultEngineTest, BlackoutStallsTransfersAndIsAttributed) {
  // A map-covering full blackout: transfers cannot progress, the session
  // give-up timer fires, and the abort is attributed to the blackout.
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  cfg.session_timeout_s = 10.0;
  cfg.pair_cooldown_s = 5.0;
  cfg.faults.burst_rate_per_min = 60.0;
  cfg.faults.burst_duration_s = 10000.0;
  cfg.faults.burst_radius_m = 1e9;
  cfg.faults.burst_extra_loss = 1.0;
  auto strategy = std::make_unique<ChattyStrategy>();
  auto* raw = strategy.get();
  raw->bytes_to_send = 500ull * 1024 * 1024;  // far more than one window
  FleetSim sim{cfg, std::move(strategy)};
  const RunMetrics m = sim.run();
  EXPECT_GE(m.transfers.sessions_lost_to_blackout, 1);
  EXPECT_LE(m.transfers.sessions_lost_to_blackout, m.transfers.sessions_aborted);
  EXPECT_EQ(m.transfers.model_sends_completed, 0);
  EXPECT_EQ(raw->accepted, 0);
}

TEST(FaultEngineTest, ChatBackoffBoundsRetryFrequency) {
  // Every delivered frame corrupt -> every chat fails. With backoff enabled
  // the pair's cooldown grows exponentially, so the fleet burns strictly
  // fewer sessions on the hopeless link than with the fixed cooldown.
  auto cfg = tiny_scenario();
  cfg.duration_s = 120.0;
  cfg.pair_cooldown_s = 2.0;
  cfg.faults.corrupt_prob_near = 1.0;
  cfg.faults.corrupt_prob_far = 1.0;

  auto plain_cfg = cfg;
  plain_cfg.faults.chat_backoff = false;
  FleetSim plain{plain_cfg, std::make_unique<ChattyStrategy>()};
  const RunMetrics mp = plain.run();

  auto backoff_cfg = cfg;
  backoff_cfg.faults.chat_backoff = true;
  FleetSim backoff{backoff_cfg, std::make_unique<ChattyStrategy>()};
  const RunMetrics mb = backoff.run();

  EXPECT_GT(mp.transfers.frames_rejected, 0);
  EXPECT_EQ(mp.transfers.backoff_retries, 0);  // gated off
  EXPECT_GT(mb.transfers.backoff_retries, 0);
  EXPECT_LT(mb.transfers.sessions_started, mp.transfers.sessions_started);
}

}  // namespace
}  // namespace lbchat::engine
