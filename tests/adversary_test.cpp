// Byzantine-adversary and fleet-heterogeneity layer (engine/adversary.h):
// payload-mutation units (poisoned frames must stay CRC-valid and
// structurally decodable), deterministic membership, straggler gating,
// thread-count invariance, and checkpoint/resume of adversarial runs.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/frame.h"
#include "coreset/coreset_io.h"
#include "engine/adversary.h"
#include "engine/checkpoint.h"
#include "engine/fleet.h"
#include "nn/model_io.h"

namespace {

using namespace lbchat;
using engine::AdversaryConfig;
using engine::AdversaryModel;
using engine::FleetSim;
using engine::HeteroConfig;
using engine::HeteroModel;

constexpr int kKindAssist = 0;
constexpr int kKindCoreset = 1;
constexpr int kKindModel = 2;

data::BevSpec tiny_bev() {
  data::BevSpec spec;
  spec.channels = 1;
  spec.height = 4;
  spec.width = 4;
  spec.cell_m = 1.0;
  return spec;
}

/// Tiny adversarial scenario (checkpoint_test.cpp tiny_cfg shape).
engine::ScenarioConfig adv_cfg(std::uint64_t seed, double byz_frac, double straggler_frac) {
  engine::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_vehicles = 4;
  cfg.world.num_background_cars = 4;
  cfg.world.num_pedestrians = 6;
  cfg.collect_duration_s = 30.0;
  cfg.collect_fps = 1.0;
  cfg.eval_frames_per_vehicle = 2;
  cfg.duration_s = 30.0;
  cfg.eval_interval_s = 10.0;
  // 4 s (not the 2 s used by checkpoint_test's tiny_cfg): at 2 s the barely
  // trained models drift apart enough that LbChat's 2x coreset-loss gate
  // rejects every compressed peer model and no aggregation ever happens,
  // which would starve the peer-weight assertions below.
  cfg.train_interval_s = 4.0;
  cfg.batch_size = 4;
  cfg.coreset_size = 12;
  cfg.pair_cooldown_s = 5.0;
  cfg.time_budget_s = 8.0;
  cfg.radio.max_range_m = 400.0;
  cfg.wire.model_bytes = 4ull * 1024 * 1024;
  cfg.wire.coreset_bytes_per_sample = 1024;
  cfg.adversary.byzantine_frac = byz_frac;
  if (straggler_frac > 0.0) {
    cfg.hetero.straggler_frac = straggler_frac;
    cfg.hetero.slow_radio_frac = straggler_frac;
    cfg.hetero.dataset_skew = 0.4;
  }
  return cfg;
}

FleetSim make_sim(const engine::ScenarioConfig& cfg, const char* approach) {
  return FleetSim{cfg, baselines::registry().make(approach)};
}

std::vector<std::uint64_t> curve_bits(const engine::RunMetrics& m) {
  std::vector<std::uint64_t> bits;
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    bits.push_back(std::bit_cast<std::uint64_t>(m.loss_curve.times[i]));
    bits.push_back(std::bit_cast<std::uint64_t>(m.loss_curve.values[i]));
  }
  for (std::size_t i = 0; i < m.honest_loss_curve.size(); ++i) {
    bits.push_back(std::bit_cast<std::uint64_t>(m.honest_loss_curve.values[i]));
    bits.push_back(std::bit_cast<std::uint64_t>(m.attacker_loss_curve.values[i]));
  }
  return bits;
}

// --- config / membership ----------------------------------------------------

TEST(Adversary, AllOffIsInert) {
  const AdversaryConfig off{};
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(HeteroConfig{}.enabled());

  AdversaryModel model{off, 42, 8};
  EXPECT_FALSE(model.active());
  EXPECT_EQ(model.byzantine_count(), 0);
  for (int v = 0; v < 8; ++v) EXPECT_FALSE(model.byzantine(v));

  // Inert payload hook: nothing is touched, nothing reported mutated.
  ByteWriter w;
  nn::SparseModel m;
  m.dim = 4;
  m.dense = true;
  m.values = {1.0f, -2.0f, 3.0f, -4.0f};
  nn::write_sparse_model(w, m);
  auto framed = frame::encode(frame::FrameType::kModel, w.bytes());
  const auto before = framed;
  EXPECT_FALSE(model.transform_payload(kKindModel, framed, tiny_bev()));
  EXPECT_EQ(framed, before);

  HeteroModel hetero{HeteroConfig{}, 42, 8};
  EXPECT_FALSE(hetero.active());
  for (int v = 0; v < 8; ++v) {
    EXPECT_EQ(hetero.compute_rate(v), 1.0);
    EXPECT_EQ(hetero.radio_scale(v), 1.0);
    EXPECT_EQ(hetero.dataset_keep(v), 1.0);
    EXPECT_TRUE(hetero.should_train(v));
  }
}

TEST(Adversary, AllOffKeepsConfigFingerprintAndCheckpointTailAbsent) {
  // The conditional config tail must leave a default config's fingerprint
  // untouched by the mere existence of the adversary/hetero fields, and two
  // enabled configs with different knobs must diverge.
  engine::ScenarioConfig base = adv_cfg(7, 0.0, 0.0);
  engine::ScenarioConfig enabled = adv_cfg(7, 0.25, 0.0);
  engine::ScenarioConfig enabled2 = adv_cfg(7, 0.5, 0.0);
  EXPECT_NE(engine::config_fingerprint(base), engine::config_fingerprint(enabled));
  EXPECT_NE(engine::config_fingerprint(enabled), engine::config_fingerprint(enabled2));

  engine::ScenarioConfig hetero = adv_cfg(7, 0.0, 0.0);
  hetero.hetero.straggler_frac = 0.5;
  EXPECT_NE(engine::config_fingerprint(base), engine::config_fingerprint(hetero));
}

TEST(Adversary, MembershipIsSeededAndSized) {
  const AdversaryConfig cfg{.byzantine_frac = 0.25};
  AdversaryModel a{cfg, 11, 8};
  AdversaryModel b{cfg, 11, 8};
  EXPECT_EQ(a.byzantine_count(), 2);  // lround(0.25 * 8)
  int flagged = 0;
  for (int v = 0; v < 8; ++v) {
    EXPECT_EQ(a.byzantine(v), b.byzantine(v)) << "membership must be seed-deterministic";
    flagged += a.byzantine(v) ? 1 : 0;
  }
  EXPECT_EQ(flagged, 2);

  AdversaryModel half{AdversaryConfig{.byzantine_frac = 0.5}, 11, 8};
  EXPECT_EQ(half.byzantine_count(), 4);
}

// --- payload mutation units -------------------------------------------------

TEST(Adversary, PoisonedModelFrameStaysValidAndSignFlipped) {
  AdversaryConfig cfg{.byzantine_frac = 1.0};
  cfg.poison_scale = 1.5;
  AdversaryModel model{cfg, 3, 2};

  nn::SparseModel m;
  m.dim = 6;
  m.dense = false;
  m.indices = {0, 2, 5};
  m.values = {1.0f, -2.0f, 0.5f};
  ByteWriter w;
  nn::write_sparse_model(w, m);
  // Trailing bytes after the sparse model (a gossip composition vector) must
  // ride through the mutation verbatim.
  const std::vector<double> comp{0.25, 0.75};
  w.write_f64_vec(comp);
  auto framed = frame::encode(frame::FrameType::kModel, w.bytes());

  ASSERT_TRUE(model.transform_payload(kKindModel, framed, tiny_bev()));
  const auto dec = frame::decode(framed);
  ASSERT_TRUE(dec.ok()) << "mutated frame must stay CRC-valid";
  ASSERT_EQ(dec.type, frame::FrameType::kModel);
  ByteReader r{dec.payload};
  const nn::SparseModel out = nn::read_sparse_model(r);
  ASSERT_EQ(out.values.size(), m.values.size());
  for (std::size_t i = 0; i < out.values.size(); ++i) {
    EXPECT_FLOAT_EQ(out.values[i], -1.5f * m.values[i]);
  }
  EXPECT_EQ(out.indices, m.indices);
  EXPECT_EQ(r.read_f64_vec(), comp);
  EXPECT_TRUE(r.exhausted());
}

TEST(Adversary, InflatedCoresetStaysDecodableAndBounded) {
  AdversaryConfig cfg{.byzantine_frac = 1.0};
  cfg.coreset_inflation = 1e9;  // drives weights into the internal cap
  AdversaryModel model{cfg, 3, 2};

  const auto spec = tiny_bev();
  coreset::Coreset c;
  c.spec = spec;
  data::Sample s;
  s.bev = data::BevGrid{spec};
  s.weight = 1.0;
  c.samples.push_back(s);
  c.wc = {2.0};
  ByteWriter w;
  coreset::write_coreset(w, c);
  auto framed = frame::encode(frame::FrameType::kCoreset, w.bytes());

  ASSERT_TRUE(model.transform_payload(kKindCoreset, framed, spec));
  const auto dec = frame::decode(framed);
  ASSERT_TRUE(dec.ok());
  ByteReader r{dec.payload};
  // Must parse through the validating decoder: the attack is required to
  // survive wire validation (inflation is capped below the decoder bound).
  const coreset::Coreset out = coreset::read_coreset(r, spec);
  ASSERT_EQ(out.wc.size(), 1u);
  EXPECT_GT(out.wc[0], c.wc[0]);
  EXPECT_LE(out.wc[0], coreset::kMaxWireCoresetWeight);
}

TEST(Adversary, AssistLieKeepsFrameDecodable) {
  AdversaryConfig cfg{.byzantine_frac = 1.0};
  AdversaryModel model{cfg, 3, 2};

  ByteWriter w;
  const double fields[7] = {10.0, 20.0, 3.0, -4.0, 5.0, 60.0, 31e6};
  for (const double f : fields) w.write_f64(f);
  w.write_u32(3);
  for (const std::int32_t node : {1, 2, 3}) w.write_i32(node);
  auto framed = frame::encode(frame::FrameType::kAssist, w.bytes());

  ASSERT_TRUE(model.transform_payload(kKindAssist, framed, tiny_bev()));
  const auto dec = frame::decode(framed);
  ASSERT_TRUE(dec.ok());
  ByteReader r{dec.payload};
  double out[7];
  for (double& f : out) f = r.read_f64();
  EXPECT_EQ(out[2], -fields[2]);  // velocity negated
  EXPECT_EQ(out[3], -fields[3]);
  EXPECT_EQ(out[6], fields[6] * cfg.assist_bandwidth_lie);
  ASSERT_EQ(r.read_u32(), 3u);
  EXPECT_EQ(r.read_i32(), 3);  // route reversed
  EXPECT_EQ(r.read_i32(), 2);
  EXPECT_EQ(r.read_i32(), 1);
  EXPECT_TRUE(r.exhausted());
}

// --- heterogeneity ------------------------------------------------------------

TEST(Hetero, StragglerCreditGateApproximatesRate) {
  HeteroConfig cfg;
  cfg.straggler_frac = 1.0;
  cfg.straggler_rate = 0.25;
  HeteroModel model{cfg, 5, 4};
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(model.straggler(v));
    int trained = 0;
    for (int tick = 0; tick < 1000; ++tick) trained += model.should_train(v) ? 1 : 0;
    // Credit accumulation tracks the rate to within one step per horizon.
    EXPECT_NEAR(trained, 1000.0 * model.compute_rate(v), 1.0) << "vehicle " << v;
  }
}

TEST(Hetero, CreditRoundTrip) {
  HeteroConfig cfg;
  cfg.straggler_frac = 1.0;
  cfg.straggler_rate = 0.3;
  HeteroModel a{cfg, 5, 3};
  for (int i = 0; i < 7; ++i) {
    for (int v = 0; v < 3; ++v) (void)a.should_train(v);
  }
  ByteWriter w;
  Save{w}(a);
  HeteroModel b{cfg, 5, 3};
  ByteReader r{w.bytes()};
  Load{r}(b);
  EXPECT_TRUE(r.exhausted());
  for (int i = 0; i < 50; ++i) {
    for (int v = 0; v < 3; ++v) {
      ASSERT_EQ(a.should_train(v), b.should_train(v)) << "step " << i << " vehicle " << v;
    }
  }
}

// --- end-to-end determinism ---------------------------------------------------

TEST(AdversaryEndToEnd, PoisonedPayloadsReachReceiversWithoutFrameRejects) {
  // No radio faults: every mutated frame must still verify (CRC re-encoded)
  // and parse (values kept inside the decoder bounds) at the receiver.
  auto sim = make_sim(adv_cfg(9, 0.5, 0.0), "LbChat");
  const auto m = sim.run();
  EXPECT_GT(m.transfers.byzantine_payloads_sent, 0);
  EXPECT_EQ(m.transfers.frames_rejected, 0);
  EXPECT_EQ(m.transfers.frames_rejected_invalid, 0);
  EXPECT_GT(m.transfers.total_peer_weight, 0.0);
  ASSERT_EQ(m.honest_loss_curve.size(), m.loss_curve.size());
  ASSERT_EQ(m.attacker_loss_curve.size(), m.loss_curve.size());
}

TEST(AdversaryEndToEnd, StragglersTrainFewerSteps) {
  auto cfg = adv_cfg(13, 0.0, 0.0);
  auto full = make_sim(cfg, "DP");
  const auto m_full = full.run();

  cfg.hetero.straggler_frac = 1.0;
  cfg.hetero.straggler_rate = 0.25;
  auto slow = make_sim(cfg, "DP");
  const auto m_slow = slow.run();
  EXPECT_GT(m_slow.transfers.straggler_train_skips, 0);
  EXPECT_LT(m_slow.train_steps, m_full.train_steps);
}

TEST(AdversaryEndToEnd, BitIdenticalAcrossThreadCounts) {
  for (const char* approach : {"LbChat", "DP"}) {
    auto cfg = adv_cfg(17, 0.25, 0.5);
    cfg.num_threads = 1;
    auto base = make_sim(cfg, approach);
    const auto m1 = base.run();

    cfg.num_threads = 4;
    auto threaded = make_sim(cfg, approach);
    const auto m4 = threaded.run();

    EXPECT_EQ(curve_bits(m1), curve_bits(m4)) << approach;
    EXPECT_EQ(m1.transfers.byzantine_payloads_sent, m4.transfers.byzantine_payloads_sent);
    EXPECT_EQ(m1.transfers.straggler_train_skips, m4.transfers.straggler_train_skips);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m1.transfers.attacker_peer_weight),
              std::bit_cast<std::uint64_t>(m4.transfers.attacker_peer_weight));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m1.transfers.total_peer_weight),
              std::bit_cast<std::uint64_t>(m4.transfers.total_peer_weight));
  }
}

TEST(AdversaryEndToEnd, CheckpointResumeBitIdentical) {
  const auto cfg = adv_cfg(23, 0.25, 0.5);
  auto straight = make_sim(cfg, "LbChat");
  const auto m_straight = straight.run();

  auto first = make_sim(cfg, "LbChat");
  first.prepare();
  first.run_until(13.0);
  ByteWriter w;
  first.save_checkpoint(w);

  auto resumed = make_sim(cfg, "LbChat");
  ByteReader r{w.bytes()};
  ASSERT_EQ(resumed.restore(r), engine::CkptStatus::kOk);
  resumed.run_until(cfg.duration_s);
  const auto m_resumed = resumed.finalize();

  EXPECT_EQ(curve_bits(m_straight), curve_bits(m_resumed));
  EXPECT_EQ(m_straight.transfers.byzantine_payloads_sent,
            m_resumed.transfers.byzantine_payloads_sent);
  EXPECT_EQ(m_straight.transfers.straggler_train_skips,
            m_resumed.transfers.straggler_train_skips);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m_straight.transfers.attacker_peer_weight),
            std::bit_cast<std::uint64_t>(m_resumed.transfers.attacker_peer_weight));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m_straight.transfers.total_peer_weight),
            std::bit_cast<std::uint64_t>(m_resumed.transfers.total_peer_weight));
}

}  // namespace
