// Tests for the wireless substrate: the distance-loss table, packet-level
// transfers, wire sizes, contact estimation, and the Eq. (5) priority score.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "net/contact.h"
#include "net/wireless.h"
#include "sim/route.h"
#include "sim/town.h"

namespace lbchat::net {
namespace {

TEST(LossModelTest, DefaultTableShape) {
  const auto loss = WirelessLossModel::default_table(500.0);
  EXPECT_LT(loss.packet_loss(0.0), 0.05);
  EXPECT_GT(loss.packet_loss(499.0), 0.8);
  EXPECT_DOUBLE_EQ(loss.packet_loss(501.0), 1.0);  // beyond the table
  // Monotone non-decreasing in distance.
  double prev = 0.0;
  for (double d = 0.0; d <= 500.0; d += 10.0) {
    const double p = loss.packet_loss(d);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(LossModelTest, DefaultTableGoldenValues) {
  // Golden pin of the default distance-loss table. These exact values are a
  // published constant of the simulator (DESIGN.md; run digests depend on
  // them) — changing the table is a breaking change and must be deliberate.
  const double range = 500.0;
  const auto loss = WirelessLossModel::default_table(range);
  const double knots[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  const double expected[] = {0.02, 0.05, 0.10, 0.15, 0.22, 0.30, 0.40, 0.55, 0.70, 0.85};
  for (std::size_t i = 0; i < std::size(knots); ++i) {
    EXPECT_DOUBLE_EQ(loss.packet_loss(knots[i] * range), expected[i]) << "knot " << knots[i];
  }
  // At and beyond the table's maximum distance the link is fully lost (the
  // 0.95 entry at the last knot is only approached from below).
  EXPECT_DOUBLE_EQ(loss.packet_loss(range), 1.0);
  EXPECT_DOUBLE_EQ(loss.packet_loss(range * 10.0), 1.0);
  EXPECT_NEAR(loss.packet_loss(range * 0.999), 0.95, 1e-2);
  EXPECT_DOUBLE_EQ(loss.max_distance(), range);
}

TEST(LossModelTest, ScalesToRange) {
  const auto short_range = WirelessLossModel::default_table(180.0);
  const auto long_range = WirelessLossModel::default_table(500.0);
  // Same loss at the same *fraction* of the range.
  EXPECT_NEAR(short_range.packet_loss(90.0), long_range.packet_loss(250.0), 1e-9);
}

TEST(LossModelTest, DeliveryProbabilityWithRetransmissions) {
  const auto loss = WirelessLossModel::default_table(500.0);
  const double p = loss.packet_loss(400.0);
  EXPECT_NEAR(loss.delivery_probability(400.0, 3), 1.0 - std::pow(p, 4.0), 1e-12);
  EXPECT_NEAR(loss.delivery_probability(400.0, 0), 1.0 - p, 1e-12);
  // Retransmissions can only help.
  EXPECT_GE(loss.delivery_probability(400.0, 3), loss.delivery_probability(400.0, 1));
}

TEST(LossModelTest, UniformSampleWithinBounds) {
  const auto loss = WirelessLossModel::default_table(500.0);
  Rng rng{3};
  for (int i = 0; i < 500; ++i) {
    const double p = loss.sample_uniform_loss(rng);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LossModelTest, RejectsBadTables) {
  EXPECT_THROW((WirelessLossModel{{0.0}, {0.1}}), std::invalid_argument);
  EXPECT_THROW((WirelessLossModel{{0.0, 0.0}, {0.1, 0.2}}), std::invalid_argument);
  EXPECT_THROW((WirelessLossModel{{0.0, 1.0}, {0.1, 1.5}}), std::invalid_argument);
}

TEST(TransferTest, CompletesInExpectedTimeNearField) {
  const RadioConfig radio;
  const auto loss = WirelessLossModel::default_table(radio.max_range_m);
  Rng rng{5};
  // 1 MB at 31 Mbps with ~2% loss should take ~0.26 s; give it 1 s of ticks.
  Transfer t{1024 * 1024, radio};
  double elapsed = 0.0;
  while (!t.complete() && elapsed < 5.0) {
    t.tick(10.0, 0.1, loss, rng);
    elapsed += 0.1;
  }
  EXPECT_TRUE(t.complete());
  EXPECT_LT(elapsed, 1.0);
}

TEST(TransferTest, NoProgressOutOfRange) {
  const RadioConfig radio;
  const auto loss = WirelessLossModel::default_table(radio.max_range_m);
  Rng rng{7};
  Transfer t{1000, radio};
  EXPECT_EQ(t.tick(radio.max_range_m + 1.0, 1.0, loss, rng), 0u);
  EXPECT_EQ(t.remaining_bytes(), 1000u);
}

TEST(TransferTest, LossReducesGoodput) {
  const RadioConfig radio;
  const auto loss = WirelessLossModel::default_table(radio.max_range_m);
  Rng rng_near{9};
  Rng rng_far{9};
  Transfer near_t{50ull * 1024 * 1024, radio};
  Transfer far_t{50ull * 1024 * 1024, radio};
  std::size_t near_bytes = 0;
  std::size_t far_bytes = 0;
  for (int i = 0; i < 20; ++i) {
    near_bytes += near_t.tick(0.05 * radio.max_range_m, 0.5, loss, rng_near);
    far_bytes += far_t.tick(0.85 * radio.max_range_m, 0.5, loss, rng_far);
  }
  EXPECT_GT(near_bytes, far_bytes * 2);
}

TEST(WireSizeTest, PaperScaleDefaults) {
  const WireSizeModel wire;
  EXPECT_EQ(wire.model_bytes, 52ull * 1024 * 1024);
  // 150-sample coreset ~ 0.6 MB.
  EXPECT_NEAR(static_cast<double>(wire.coreset_bytes(150)), 0.6 * 1024 * 1024, 0.05 * 1024 * 1024);
  EXPECT_EQ(wire.assist_info_bytes, 184u);
  // Coreset is ~2 orders of magnitude smaller than the model (paper §I).
  EXPECT_GT(wire.model_bytes / wire.coreset_bytes(150), 50u);
}

TEST(WireSizeTest, ModelBytesAtPsi) {
  const WireSizeModel wire;
  EXPECT_EQ(wire.model_bytes_at(0.0), 0u);
  EXPECT_EQ(wire.model_bytes_at(1.0), wire.model_bytes);
  EXPECT_EQ(wire.model_bytes_at(0.5), wire.model_bytes / 2);
  EXPECT_EQ(wire.model_bytes_at(2.0), wire.model_bytes);  // clamped
}

TEST(WireSizeTest, TinyPsiRoundsUpToOneByte) {
  // Regression: truncation toward zero used to turn a tiny nonzero psi into a
  // 0-byte transfer that "completed" instantly — a free model exchange. Any
  // psi > 0 must cost at least one wire byte.
  const WireSizeModel wire;
  EXPECT_GE(wire.model_bytes_at(1e-12), 1u);
  EXPECT_GE(wire.model_bytes_at(1.0 / static_cast<double>(wire.model_bytes) / 2.0), 1u);
  // Round-up never exceeds the full model.
  EXPECT_LE(wire.model_bytes_at(0.999999999), wire.model_bytes);
}

TEST(TransferTest, ExtraLossStallsAndComposes) {
  const RadioConfig radio;
  const auto loss = WirelessLossModel::default_table(radio.max_range_m);
  // extra_loss = 1.0 blacks the link out: zero bytes regardless of distance.
  {
    Rng rng{21};
    Transfer t{1024 * 1024, radio};
    EXPECT_EQ(t.tick(10.0, 1.0, loss, rng, /*extra_loss=*/1.0), 0u);
    EXPECT_FALSE(t.complete());
  }
  // Partial extra loss degrades goodput relative to a clean link.
  {
    Rng rng_clean{22};
    Rng rng_noisy{22};
    Transfer clean{50ull * 1024 * 1024, radio};
    Transfer noisy{50ull * 1024 * 1024, radio};
    std::size_t clean_bytes = 0;
    std::size_t noisy_bytes = 0;
    for (int i = 0; i < 10; ++i) {
      clean_bytes += clean.tick(10.0, 0.5, loss, rng_clean);
      noisy_bytes += noisy.tick(10.0, 0.5, loss, rng_noisy, /*extra_loss=*/0.7);
    }
    EXPECT_GT(clean_bytes, noisy_bytes * 2);
  }
  // extra_loss = 0.0 must be the IEEE-identical default path.
  {
    Rng rng_a{23};
    Rng rng_b{23};
    Transfer a{1024 * 1024, radio};
    Transfer b{1024 * 1024, radio};
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(a.tick(50.0, 0.2, loss, rng_a), b.tick(50.0, 0.2, loss, rng_b, 0.0));
    }
  }
}

// ---------------------------------------------------------------- contact

class ContactFixture : public ::testing::Test {
 protected:
  ContactFixture() : rng_(31), map_(sim::TownMap::generate({}, rng_)) {}
  Rng rng_;
  sim::TownMap map_;
  RadioConfig radio_;
  WirelessLossModel loss_ = WirelessLossModel::default_table(RadioConfig{}.max_range_m);
};

TEST_F(ContactFixture, StationaryNearbyPairHasLongContact) {
  AssistInfo a;
  a.pos = {100.0, 100.0};
  AssistInfo b;
  b.pos = {120.0, 100.0};
  const ContactEstimate est = estimate_contact(a, b, radio_, loss_, 60.0);
  EXPECT_GE(est.duration_s, 60.0);
  EXPECT_GT(est.mean_delivery, 0.9);
  EXPECT_GT(est.mean_goodput, 0.8);
}

TEST_F(ContactFixture, OutOfRangePairHasZeroContact) {
  AssistInfo a;
  a.pos = {0.0, 0.0};
  AssistInfo b;
  b.pos = {radio_.max_range_m * 3.0, 0.0};
  const ContactEstimate est = estimate_contact(a, b, radio_, loss_);
  EXPECT_DOUBLE_EQ(est.duration_s, 0.0);
}

TEST_F(ContactFixture, DivergingVelocitiesShortenContact) {
  AssistInfo a;
  a.pos = {0.0, 0.0};
  a.velocity = {-15.0, 0.0};
  AssistInfo b;
  b.pos = {50.0, 0.0};
  b.velocity = {15.0, 0.0};
  const ContactEstimate est = estimate_contact(a, b, radio_, loss_);
  // Gap grows 30 m/s from 50 m; range 180 m -> leaves range after ~4-5 s.
  EXPECT_GT(est.duration_s, 2.0);
  EXPECT_LT(est.duration_s, 8.0);
}

TEST_F(ContactFixture, RoutePredictionDiffersFromVelocityExtrapolation) {
  // A vehicle about to turn: the route-based prediction follows the turn,
  // the velocity-based one flies straight on — the estimates diverge. This
  // divergence is why LbChat's route sharing yields better p_ij estimates.
  const sim::Route r = sim::plan_route(map_, 0, static_cast<int>(map_.nodes().size()) - 1);
  ASSERT_FALSE(r.empty());
  AssistInfo with_route;
  with_route.pos = r.position_at(0.0);
  with_route.speed = 10.0;
  with_route.route_s = 0.0;
  with_route.route = &r;
  AssistInfo no_route = with_route;
  no_route.route = nullptr;
  no_route.velocity = Vec2{std::cos(r.heading_at(0.0)), std::sin(r.heading_at(0.0))} * 10.0;

  AssistInfo observer;
  observer.pos = r.position_at(0.0) + Vec2{30.0, 30.0};

  const ContactEstimate with = estimate_contact(with_route, observer, radio_, loss_);
  const ContactEstimate without = estimate_contact(no_route, observer, radio_, loss_);
  // Both valid estimates, but they must disagree eventually (route length
  // permitting) — compare the predicted distance samples.
  const std::size_t n = std::min(with.distances.size(), without.distances.size());
  ASSERT_GT(n, 5u);
  double max_gap = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_gap = std::max(max_gap, std::abs(with.distances[i] - without.distances[i]));
  }
  EXPECT_GT(max_gap, 1.0);
}

TEST_F(ContactFixture, PriorityScoreComposition) {
  AssistInfo a;
  a.pos = {100.0, 100.0};
  a.bandwidth_bps = 31e6;
  AssistInfo b;
  b.pos = {130.0, 100.0};
  b.bandwidth_bps = 20e6;
  const ContactEstimate est = estimate_contact(a, b, radio_, loss_, 60.0);
  const double needed = 30.0;
  const double score = priority_score(a, b, est, needed);
  EXPECT_NEAR(score,
              contact_priority(est, needed) * completion_probability(est) * 20e6, 1e-6);
}

TEST_F(ContactFixture, ContactPriorityTruncatesAtOne) {
  ContactEstimate est;
  est.duration_s = 100.0;
  EXPECT_DOUBLE_EQ(contact_priority(est, 10.0), 1.0);
  est.duration_s = 5.0;
  EXPECT_DOUBLE_EQ(contact_priority(est, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(contact_priority(est, 0.0), 1.0);
}

TEST_F(ContactFixture, CloserPairsScoreHigher) {
  AssistInfo a;
  a.pos = {100.0, 100.0};
  AssistInfo near_peer;
  near_peer.pos = {120.0, 100.0};
  AssistInfo far_peer;
  far_peer.pos = {100.0 + radio_.max_range_m * 0.9, 100.0};
  const double needed = 30.0;
  const auto near_est = estimate_contact(a, near_peer, radio_, loss_);
  const auto far_est = estimate_contact(a, far_peer, radio_, loss_);
  EXPECT_GT(priority_score(a, near_peer, near_est, needed),
            priority_score(a, far_peer, far_est, needed));
}

}  // namespace
}  // namespace lbchat::net
