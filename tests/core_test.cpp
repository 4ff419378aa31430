// Tests for the LbChat core: phi mappings, the Eq. (7) optimizer, coreset
// subsampling, and the full chat protocol as an engine strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/compress_opt.h"
#include "core/lbchat.h"
#include "nn/int8_policy.h"
#include "nn/optim.h"
#include "sim/world.h"

namespace lbchat::core {
namespace {

// --------------------------------------------------------- subsample / loss

coreset::Coreset make_coreset(std::size_t n, double weight_each = 2.0) {
  coreset::Coreset c;
  c.spec = data::kDefaultBevSpec;
  Rng rng{5};
  for (std::size_t i = 0; i < n; ++i) {
    data::Sample s;
    s.bev = data::BevGrid{c.spec};
    for (int k = 0; k < c.spec.numel(); ++k) {
      s.bev.set(static_cast<std::size_t>(k), rng.chance(0.2));
    }
    s.command = static_cast<data::Command>(i % data::kNumCommands);
    s.id = i;
    c.samples.push_back(std::move(s));
    c.wc.push_back(weight_each);
  }
  return c;
}

TEST(SubsampleTest, NoOpWhenSmall) {
  const auto c = make_coreset(10);
  const auto sub = subsample_coreset(c, 20);
  EXPECT_EQ(sub.size(), 10u);
}

TEST(SubsampleTest, PreservesTotalMass) {
  const auto c = make_coreset(100, 3.0);
  const auto sub = subsample_coreset(c, 16);
  EXPECT_LE(sub.size(), 34u);
  EXPECT_GE(sub.size(), 10u);
  EXPECT_NEAR(sub.total_weight(), c.total_weight(), 1e-9);
}

TEST(NormalizedLossTest, ScaleInvariantInMass) {
  const auto small = make_coreset(40, 1.0);
  auto heavy = small;
  for (double& w : heavy.wc) w *= 10.0;
  const nn::DrivingPolicy model{{}, 3};
  const coreset::PenaltyConfig penalty{0.0, 0.0};  // pure empirical term
  EXPECT_NEAR(normalized_coreset_loss(model, small, penalty),
              normalized_coreset_loss(model, heavy, penalty), 1e-9);
}

// --------------------------------------------------------- phi mapping

TEST(PhiMappingTest, FromPairsEvaluatesThroughAkima) {
  const PhiMapping phi{{0.125, 0.5, 1.0}, {0.8, 0.4, 0.2}};
  EXPECT_NEAR(phi(0.125), 0.8, 1e-9);
  EXPECT_NEAR(phi(1.0), 0.2, 1e-9);
  EXPECT_GT(phi(0.3), 0.2);
  EXPECT_LT(phi(0.3), 0.8);
  // Clamping: above the range returns the end value; below returns the
  // worst sampled loss sentinel.
  EXPECT_NEAR(phi(2.0), 0.2, 1e-9);
  EXPECT_NEAR(phi(0.01), 0.8, 1e-9);
}

TEST(PhiMappingTest, RejectsTooFewPoints) {
  EXPECT_THROW((PhiMapping{{0.5}, {0.1}}), std::invalid_argument);
  EXPECT_THROW((void)PhiMapping{}(0.5), std::logic_error);
}

/// Reference for PhiMapping::build: compress at each psi on its own through
/// compress_for_psi + densify, and score a freshly built scratch policy.
std::vector<double> naive_phi_losses(const nn::DrivingPolicy& model, const coreset::Coreset& c,
                                     bool int8) {
  const coreset::PenaltyConfig penalty{};
  const coreset::Coreset sub = subsample_coreset(c, 64);
  nn::DrivingPolicy compressed{model.config(), /*init_seed=*/0};
  std::vector<double> ys;
  for (const double psi : PhiMapping::kDefaultPsis) {
    compressed.set_params(nn::compress_for_psi(model.params(), psi).densify());
    ys.push_back(int8 ? normalized_coreset_loss(nn::Int8Policy{compressed}, sub, penalty)
                      : normalized_coreset_loss(compressed, sub, penalty));
  }
  return ys;
}

/// A model whose (k+1)-th largest magnitude equals its k-th at k =
/// top_k_for_psi(psi): the top-k set of that sweep point is not unique.
nn::DrivingPolicy model_with_tie_at(double psi) {
  nn::DrivingPolicy model{{}, 11};
  const auto p = model.params();
  const std::size_t k = nn::top_k_for_psi(psi, p.size());
  std::vector<std::size_t> order(p.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return std::abs(p[a]) > std::abs(p[b]); });
  p[order[k]] = std::copysign(std::abs(p[order[k - 1]]), p[order[k]]);
  return model;
}

TEST(PhiMappingTest, SweepMatchesPerPsiCompressionBitForBit) {
  const auto cs = make_coreset(100);
  const nn::DrivingPolicy tied = model_with_tie_at(0.5);
  const std::size_t k = nn::top_k_for_psi(0.5, tied.param_count());
  nn::MagnitudeRanking ranking{tied.params()};
  const float t = *ranking.kth_largest(k);
  const auto at_or_above = std::count_if(tied.params().begin(), tied.params().end(),
                                         [&](float w) { return std::abs(w) >= t; });
  ASSERT_EQ(static_cast<std::size_t>(at_or_above), k + 1) << "the psi = 0.5 tie is missing";

  const nn::DrivingPolicy plain{{}, 11};
  for (const bool int8 : {false, true}) {
    for (const nn::DrivingPolicy* model : {&plain, &tied}) {
      const PhiMapping phi =
          PhiMapping::build(*model, cs, {}, PhiMapping::kDefaultPsis, 64, int8);
      EXPECT_EQ(phi.sample_losses(), naive_phi_losses(*model, cs, int8))
          << (int8 ? "int8" : "fp32") << (model == &tied ? " tied" : " plain");
    }
  }
}

TEST(PhiMappingTest, BuiltMappingDecreasesForTrainedModel) {
  // For a trained model, less compression (higher psi) can only preserve
  // more of the model, so phi(1) <= phi(0.125) (noise-tolerant check).
  sim::World world{sim::WorldConfig{}, 1, 7};
  data::WeightedDataset ds{data::kDefaultBevSpec};
  for (std::uint64_t f = 0; f < 200; ++f) {
    world.step(0.5);
    ds.add(world.collect_sample(0, f));
  }
  nn::DrivingPolicy model;
  nn::Adam opt{1e-3};
  Rng rng{9};
  for (int i = 0; i < 150; ++i) {
    const auto idx = ds.sample_batch(rng, 32);
    std::vector<const data::Sample*> batch;
    for (const auto j : idx) batch.push_back(&ds[j]);
    model.train_batch(batch, opt);
  }
  coreset::CoresetConfig ccfg;
  ccfg.target_size = 80;
  const auto cs = coreset::build_layered_coreset(ds, model, ccfg, rng);
  const PhiMapping phi = PhiMapping::build(model, cs, {});
  EXPECT_LT(phi(1.0), phi(0.125));
  EXPECT_LE(phi(1.0), phi(0.5) + 1e-9);
  ASSERT_EQ(phi.sample_psis().size(), 7u);
}

// --------------------------------------------------------- exchange gain

TEST(ExchangeGainTest, ZeroAtPsiZero) {
  const PhiMapping phi{{0.125, 1.0}, {0.5, 0.2}};
  EXPECT_DOUBLE_EQ(exchange_gain(10.0, phi, 0.0), 0.0);
}

TEST(ExchangeGainTest, CompressionNeverIncreasesAssessedValue) {
  // Regression: an (untrained) model whose pruned variants measure LOWER
  // losses than the original must not generate exchange gains at small psi —
  // the predicted loss is clamped from below by phi(1).
  const PhiMapping phi{{0.125, 0.5, 1.0}, {0.32, 0.36, 0.40}};  // inverted curve
  EXPECT_DOUBLE_EQ(exchange_gain(0.38, phi, 0.125), 0.0);
  EXPECT_DOUBLE_EQ(exchange_gain(0.38, phi, 1.0), 0.0);
  // A receiver genuinely worse than the uncompressed sender still gains.
  EXPECT_NEAR(exchange_gain(0.50, phi, 0.125), 0.10, 1e-9);
}

TEST(ExchangeGainTest, ReluTruncatesNegativeGain) {
  const PhiMapping phi{{0.125, 1.0}, {0.5, 0.2}};
  // Receiver already better than even the uncompressed sender model.
  EXPECT_DOUBLE_EQ(exchange_gain(0.1, phi, 1.0), 0.0);
  // Receiver worse: positive gain, growing with psi.
  EXPECT_NEAR(exchange_gain(0.6, phi, 1.0), 0.4, 1e-9);
  EXPECT_LT(exchange_gain(0.6, phi, 0.125), exchange_gain(0.6, phi, 1.0));
}

// --------------------------------------------------------- Eq. (7) solver

CompressionProblem basic_problem() {
  CompressionProblem p;
  p.loss_i_on_cj = 0.5;  // v_i is poor on the peer's data
  p.loss_j_on_ci = 0.5;
  p.phi_i = PhiMapping{{0.125, 0.25, 0.5, 0.75, 1.0}, {0.6, 0.45, 0.3, 0.25, 0.2}};
  p.phi_j = PhiMapping{{0.125, 0.25, 0.5, 0.75, 1.0}, {0.6, 0.45, 0.3, 0.25, 0.2}};
  p.model_bytes = 52.0 * 1024 * 1024;
  p.bandwidth_bps = 31e6;
  p.time_budget_s = 15.0;
  p.contact_s = 1e9;
  p.lambda_c = 0.0005;
  return p;
}

TEST(OptimizeTest, RespectsTimeConstraint) {
  const auto p = basic_problem();
  const CompressionDecision d = optimize_compression(p);
  const double window = std::min(p.time_budget_s, p.contact_s);
  EXPECT_LE(d.exchange_time_s, window + 1e-9);
  EXPECT_GE(d.psi_i, 0.0);
  EXPECT_LE(d.psi_i, 1.0);
  EXPECT_GE(d.psi_j, 0.0);
  EXPECT_LE(d.psi_j, 1.0);
}

TEST(OptimizeTest, BothSidesGainSymmetricProblem) {
  const auto p = basic_problem();
  const CompressionDecision d = optimize_compression(p);
  EXPECT_GT(d.psi_i, 0.0);
  EXPECT_GT(d.psi_j, 0.0);
  EXPECT_NEAR(d.psi_i, d.psi_j, 0.06);  // symmetric inputs, symmetric split
  EXPECT_GT(d.gain_to_i, 0.0);
  EXPECT_GT(d.gain_to_j, 0.0);
}

TEST(OptimizeTest, NoGainMeansNoTransfer) {
  auto p = basic_problem();
  p.loss_i_on_cj = 0.05;  // both receivers already better than the senders
  p.loss_j_on_ci = 0.05;
  const CompressionDecision d = optimize_compression(p);
  EXPECT_DOUBLE_EQ(d.psi_i, 0.0);
  EXPECT_DOUBLE_EQ(d.psi_j, 0.0);
  EXPECT_DOUBLE_EQ(d.exchange_time_s, 0.0);
}

TEST(OptimizeTest, OneSidedValueYieldsOneSidedTransfer) {
  auto p = basic_problem();
  p.loss_i_on_cj = 0.7;   // v_i wants x_j badly
  p.loss_j_on_ci = 0.02;  // v_j gains nothing from x_i
  const CompressionDecision d = optimize_compression(p);
  EXPECT_DOUBLE_EQ(d.psi_i, 0.0);
  EXPECT_GT(d.psi_j, 0.5);
}

TEST(OptimizeTest, TightContactForcesCompression) {
  auto p = basic_problem();
  p.contact_s = 7.0;  // roughly half a full one-way transfer
  const CompressionDecision d = optimize_compression(p);
  EXPECT_LE(d.exchange_time_s, 7.0 + 1e-9);
  EXPECT_LT(d.psi_i + d.psi_j, 0.55);
}

TEST(OptimizeTest, LargeLambdaSuppressesMarginalTransfers) {
  auto p = basic_problem();
  p.lambda_c = 10.0;  // time is precious
  const CompressionDecision d = optimize_compression(p);
  EXPECT_DOUBLE_EQ(d.psi_i + d.psi_j, 0.0);
}

TEST(OptimizeTest, LowGoodputShrinksFeasibleRegion) {
  auto p = basic_problem();
  const CompressionDecision fast = optimize_compression(p);
  p.bandwidth_bps = 31e6 * 0.3;  // heavy loss: effective bandwidth lower
  const CompressionDecision slow = optimize_compression(p);
  EXPECT_LE(slow.psi_i + slow.psi_j, fast.psi_i + fast.psi_j + 1e-9);
}

TEST(OptimizeTest, RejectsBadInputs) {
  auto p = basic_problem();
  p.bandwidth_bps = 0.0;
  EXPECT_THROW((void)optimize_compression(p), std::invalid_argument);
  EXPECT_THROW((void)optimize_compression(basic_problem(), 0), std::invalid_argument);
}

// --------------------------------------------------------- LbChat strategy

engine::ScenarioConfig chat_scenario() {
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

TEST(LbChatStrategyTest, NamesReflectVariants) {
  EXPECT_EQ(LbChatStrategy{}.name(), "LbChat");
  LbChatOptions sco;
  sco.share_model = false;
  EXPECT_EQ(LbChatStrategy{sco}.name(), "SCO");
  LbChatOptions eq;
  eq.adaptive_compression = false;
  EXPECT_EQ(LbChatStrategy{eq}.name(), "LbChat(equal-comp)");
  LbChatOptions avg;
  avg.coreset_weighted_aggregation = false;
  EXPECT_EQ(LbChatStrategy{avg}.name(), "LbChat(avg-agg)");
}

TEST(LbChatStrategyTest, CoresetsBuiltAtSetupAndBounded) {
  auto strategy = std::make_unique<LbChatStrategy>();
  auto* raw = strategy.get();
  const auto cfg = chat_scenario();
  engine::FleetSim sim{cfg, std::move(strategy)};
  (void)sim.run();
  for (int v = 0; v < cfg.num_vehicles; ++v) {
    EXPECT_GT(raw->coreset_of(v).size(), 0u);
    EXPECT_LE(raw->coreset_of(v).size(), cfg.coreset_size);
  }
}

TEST(LbChatStrategyTest, ChatExchangesCoresetsAndExpandsDatasets) {
  const auto cfg = chat_scenario();
  engine::FleetSim sim{cfg, std::make_unique<LbChatStrategy>()};
  const engine::RunMetrics m = sim.run();
  EXPECT_GT(m.transfers.coreset_sends_started, 0);
  EXPECT_GT(m.transfers.coreset_sends_completed, 0);
  // Dataset expansion (§III-D): at least one vehicle absorbed foreign frames.
  bool expanded = false;
  for (int v = 0; v < cfg.num_vehicles; ++v) {
    const auto& ds = sim.node(v).dataset;
    for (std::size_t i = 0; i < ds.size() && !expanded; ++i) {
      expanded |= ds[i].source_vehicle != static_cast<std::uint32_t>(v);
    }
  }
  EXPECT_TRUE(expanded);
}

TEST(LbChatStrategyTest, ScoNeverSendsModels) {
  LbChatOptions opts;
  opts.share_model = false;
  const auto cfg = chat_scenario();
  engine::FleetSim sim{cfg, std::make_unique<LbChatStrategy>(opts)};
  const engine::RunMetrics m = sim.run();
  EXPECT_EQ(m.transfers.model_sends_started, 0);
  EXPECT_GT(m.transfers.coreset_sends_completed, 0);
}

TEST(LbChatStrategyTest, EqualCompressionAlwaysSendsModels) {
  LbChatOptions opts;
  opts.adaptive_compression = false;
  const auto cfg = chat_scenario();
  engine::FleetSim sim{cfg, std::make_unique<LbChatStrategy>(opts)};
  const engine::RunMetrics m = sim.run();
  // Blind equal-ratio compression transfers models on every completed chat.
  EXPECT_GT(m.transfers.model_sends_started, 0);
}

TEST(LbChatStrategyTest, TrainingImprovesHeldOutLoss) {
  auto cfg = chat_scenario();
  cfg.duration_s = 300.0;
  engine::FleetSim sim{cfg, std::make_unique<LbChatStrategy>()};
  const engine::RunMetrics m = sim.run();
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front() * 0.7);
}

TEST(LbChatStrategyTest, DeterministicAcrossRuns) {
  const auto cfg = chat_scenario();
  engine::FleetSim a{cfg, std::make_unique<LbChatStrategy>()};
  engine::FleetSim b{cfg, std::make_unique<LbChatStrategy>()};
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.final_params[0], mb.final_params[0]);
  EXPECT_EQ(ma.transfers.coreset_sends_completed, mb.transfers.coreset_sends_completed);
}

}  // namespace
}  // namespace lbchat::core

// Appended: LbChat with an alternative coreset construction (paper §V).
#include "coreset/alternatives.h"

namespace lbchat::core {
namespace {

engine::ScenarioConfig alt_chat_scenario() {
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

class LbChatCoresetMethodTest
    : public ::testing::TestWithParam<coreset::CoresetMethod> {};

TEST_P(LbChatCoresetMethodTest, ProtocolWorksWithAlternativeConstructions) {
  LbChatOptions opts;
  opts.coreset_method = GetParam();
  const auto cfg = alt_chat_scenario();
  engine::FleetSim sim{cfg, std::make_unique<LbChatStrategy>(opts)};
  const engine::RunMetrics m = sim.run();
  EXPECT_GT(m.transfers.coreset_sends_completed, 0);
  EXPECT_LT(m.loss_curve.values.back(), m.loss_curve.values.front());
}

INSTANTIATE_TEST_SUITE_P(Methods, LbChatCoresetMethodTest,
                         ::testing::Values(coreset::CoresetMethod::kUniform,
                                           coreset::CoresetMethod::kSensitivity,
                                           coreset::CoresetMethod::kClustering));

}  // namespace
}  // namespace lbchat::core
