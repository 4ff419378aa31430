// Protocol-level invariants across strategies: transfer accounting, session
// bounds, and option behaviours not covered by the per-module suites.
#include <gtest/gtest.h>

#include "baselines/dfl_dds.h"
#include "baselines/dp.h"
#include "baselines/gossip_base.h"
#include "baselines/proxskip.h"
#include "baselines/rsul.h"
#include "common/frame.h"
#include "core/lbchat.h"
#include "engine/fleet.h"
#include "nn/model_io.h"

namespace lbchat {
namespace {

engine::ScenarioConfig proto_scenario() {
  engine::ScenarioConfig cfg;
  cfg.num_vehicles = 4;
  cfg.collect_duration_s = 90.0;
  cfg.duration_s = 200.0;
  cfg.eval_interval_s = 100.0;
  cfg.coreset_size = 40;
  cfg.pair_cooldown_s = 30.0;
  cfg.world.num_background_cars = 6;
  cfg.world.num_pedestrians = 10;
  return cfg;
}

TEST(ProtocolTest, CompletedTransfersDeliverBytes) {
  engine::FleetSim sim{proto_scenario(), std::make_unique<core::LbChatStrategy>()};
  const auto m = sim.run();
  ASSERT_GT(m.transfers.coreset_sends_completed, 0);
  // Each coreset is ~164 KB on the wire at |C|=40.
  EXPECT_GT(m.transfers.bytes_delivered,
            static_cast<std::uint64_t>(m.transfers.coreset_sends_completed) * 100000);
}

TEST(ProtocolTest, CompletionsNeverExceedStarts) {
  for (const bool wireless : {false, true}) {
    auto cfg = proto_scenario();
    cfg.wireless_loss = wireless;
    engine::FleetSim sim{cfg, std::make_unique<core::LbChatStrategy>()};
    const auto m = sim.run();
    EXPECT_LE(m.transfers.model_sends_completed, m.transfers.model_sends_started);
    EXPECT_LE(m.transfers.coreset_sends_completed, m.transfers.coreset_sends_started);
    EXPECT_LE(m.transfers.sessions_aborted, m.transfers.sessions_started);
  }
}

TEST(ProtocolTest, NoWirelessLossMeansNearPerfectCoresetDelivery) {
  auto cfg = proto_scenario();
  cfg.wireless_loss = false;
  engine::FleetSim sim{cfg, std::make_unique<core::LbChatStrategy>()};
  const auto m = sim.run();
  ASSERT_GT(m.transfers.coreset_sends_started, 0);
  // Coresets are tiny (<1 s of airtime): without loss, only a contact that
  // breaks within that second can kill one.
  EXPECT_GE(static_cast<double>(m.transfers.coreset_sends_completed) /
                m.transfers.coreset_sends_started,
            0.9);
}

TEST(ProtocolTest, RsuExchangesBoundedByRevisitCooldown) {
  auto cfg = proto_scenario();
  baselines::RsuOptions opts;
  opts.revisit_cooldown_s = 50.0;
  engine::FleetSim sim{cfg, std::make_unique<baselines::RsuStrategy>(opts)};
  const auto m = sim.run();
  // Per vehicle, at most duration/cooldown visits (+1), each 2 sends.
  const int max_visits = static_cast<int>(cfg.duration_s / opts.revisit_cooldown_s) + 1;
  EXPECT_LE(m.transfers.model_sends_started, cfg.num_vehicles * max_visits * 2);
}

TEST(ProtocolTest, DflDdsSessionCountBoundedByRounds) {
  auto cfg = proto_scenario();
  engine::FleetSim sim{cfg, std::make_unique<baselines::DflDdsStrategy>()};
  const auto m = sim.run();
  const int rounds = static_cast<int>(cfg.duration_s / cfg.time_budget_s) + 1;
  // At most floor(N/2) pairs per synchronous round.
  EXPECT_LE(m.transfers.sessions_started, rounds * (cfg.num_vehicles / 2));
}

TEST(ProtocolTest, ProxSkipCommProbabilityScalesTraffic) {
  auto cfg = proto_scenario();
  cfg.wireless_loss = false;
  baselines::ProxSkipOptions rare;
  rare.comm_probability = 0.1;
  baselines::ProxSkipOptions often;
  often.comm_probability = 1.0;
  engine::FleetSim a{cfg, std::make_unique<baselines::ProxSkipStrategy>(rare)};
  engine::FleetSim b{cfg, std::make_unique<baselines::ProxSkipStrategy>(often)};
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_LT(ma.transfers.model_sends_started, mb.transfers.model_sends_started);
}

TEST(ProtocolTest, ProxSkipControlVariatesOptionStillLearns) {
  auto cfg = proto_scenario();
  cfg.duration_s = 240.0;
  baselines::ProxSkipOptions opts;
  opts.variate_scale = 0.05;
  engine::FleetSim sim{cfg, std::make_unique<baselines::ProxSkipStrategy>(opts)};
  const auto m = sim.run();
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front());
}

TEST(ProtocolTest, LbChatSendsAssistInfoBeforeEveryChat) {
  engine::FleetSim sim{proto_scenario(), std::make_unique<core::LbChatStrategy>()};
  (void)sim.run();
  // Every chat starts with two assist exchanges and two coreset sends, so
  // coreset sends == 2 * sessions that reached the coreset stage.
  const auto& st = sim.stats();
  EXPECT_EQ(st.coreset_sends_started % 2, 0);
  EXPECT_LE(st.coreset_sends_started, 2 * st.sessions_started);
}

TEST(ProtocolTest, WirelessTogglePreservesDataCollection) {
  // Wireless loss must not leak into the data-collection phase: both runs
  // collect identical local datasets (loss only affects exchanges).
  auto cfg_a = proto_scenario();
  cfg_a.wireless_loss = false;
  auto cfg_b = proto_scenario();
  cfg_b.wireless_loss = true;
  engine::FleetSim a{cfg_a, std::make_unique<core::LbChatStrategy>()};
  engine::FleetSim b{cfg_b, std::make_unique<core::LbChatStrategy>()};
  (void)a.run();
  (void)b.run();
  // Initial collected frames (pre-absorption) match: compare validation sets,
  // which never change after collection.
  ASSERT_EQ(a.node(0).validation.size(), b.node(0).validation.size());
  for (std::size_t i = 0; i < a.node(0).validation.size(); ++i) {
    EXPECT_EQ(a.node(0).validation[i].id, b.node(0).validation[i].id);
    EXPECT_EQ(a.node(0).validation[i].bev.bits, b.node(0).validation[i].bev.bits);
  }
}

/// Runs `inner` unchanged, except for one extra CRC-valid model frame in the
/// strategy's own payload layout whose sparse model claims one parameter
/// more than the fleet's models have. A gossip strategy gets it on a session
/// of its own (started on the first tick with an idle pair in range, so the
/// frame lands before the pair drifts apart); LbChat, whose receivers need
/// the chat's scratch, on the first chat that goes idle.
class OversizedModelSender final : public engine::Strategy {
 public:
  OversizedModelSender(std::unique_ptr<engine::Strategy> inner, bool gossip)
      : inner_(std::move(inner)), gossip_(gossip) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void setup(engine::FleetSim& sim) override { inner_->setup(sim); }
  void local_train(engine::FleetSim& sim, int v) override { inner_->local_train(sim, v); }
  void on_tick(engine::FleetSim& sim) override {
    for (int a = 0; gossip_ && rejected_before_ < 0 && a < sim.num_vehicles(); ++a) {
      for (const int b : sim.neighbors_in_range(a)) {
        if (sim.is_idle(a) && sim.is_idle(b)) {
          send(sim, sim.start_session(a, b));
          break;
        }
      }
    }
    inner_->on_tick(sim);
  }
  void on_transfer_complete(engine::FleetSim& sim, engine::PairSession& s,
                            const engine::StageTag& tag) override {
    inner_->on_transfer_complete(sim, s, tag);
  }
  void on_session_aborted(engine::FleetSim& sim, engine::PairSession& s) override {
    inner_->on_session_aborted(sim, s);
  }
  void on_session_idle(engine::FleetSim& sim, engine::PairSession& s) override {
    if (gossip_ || rejected_before_ >= 0) return inner_->on_session_idle(sim, s);
    send(sim, s);
  }

  /// frames_rejected when the frame was queued (-1 before then).
  [[nodiscard]] long rejected_before() const { return rejected_before_; }

 private:
  void send(engine::FleetSim& sim, engine::PairSession& s) {
    rejected_before_ = sim.stats().frames_rejected;
    nn::SparseModel m;
    m.dim = static_cast<std::uint32_t>(sim.node(0).model.param_count() + 1);
    m.indices = {0};
    m.values = {1.0f};
    std::vector<std::uint8_t> framed;
    if (gossip_) {
      framed = baselines::encode_exchange({m, {}});
    } else {
      ByteWriter w;
      nn::write_sparse_model(w, m);
      framed = frame::encode(frame::FrameType::kModel, w.bytes());
    }
    s.deadline_s = sim.time() + 10.0;
    sim.queue_transfer(s, s.vehicle_a(), 64, {engine::StageTag::kModel, s.vehicle_a(), 0},
                       std::move(framed));
  }

  std::unique_ptr<engine::Strategy> inner_;
  bool gossip_;
  long rejected_before_ = -1;
};

TEST(ProtocolTest, WrongSizeModelIsRejectedBeforeDensify) {
  for (const bool lbchat : {false, true}) {
    auto cfg = proto_scenario();
    cfg.wireless_loss = false;
    std::unique_ptr<engine::Strategy> inner;
    if (lbchat) {
      inner = std::make_unique<core::LbChatStrategy>();
    } else {
      inner = std::make_unique<baselines::DpStrategy>();
    }
    auto sender = std::make_unique<OversizedModelSender>(std::move(inner), !lbchat);
    const OversizedModelSender& probe = *sender;
    engine::FleetSim sim{cfg, std::move(sender)};
    const auto m = sim.run();
    ASSERT_EQ(probe.rejected_before(), 0) << (lbchat ? "LbChat" : "DP");
    EXPECT_EQ(m.transfers.frames_rejected, 1) << (lbchat ? "LbChat" : "DP");
    EXPECT_EQ(m.transfers.model_frames_rejected, 1) << (lbchat ? "LbChat" : "DP");
  }
}

}  // namespace
}  // namespace lbchat
