// Tests for the coreset library: Algorithm 1 layered sampling, the
// epsilon-coreset approximation property, Eq. (6) penalties, and the
// merge + reduce fast path (paper §III-B, §III-D).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "coreset/coreset.h"
#include "nn/int8_policy.h"
#include "nn/optim.h"
#include "sim/world.h"

namespace lbchat::coreset {
namespace {

/// Shared fixture: a small driving dataset and a briefly-trained model so
/// per-sample losses have realistic spread.
class CoresetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new sim::World{sim::WorldConfig{}, 1, 7};
    dataset_ = new data::WeightedDataset{data::kDefaultBevSpec};
    for (std::uint64_t f = 0; f < 300; ++f) {
      world_->step(0.5);
      data::Sample s = world_->collect_sample(0, f);
      // Non-uniform weights exercise the weighted sampling path.
      s.weight = 1.0 + static_cast<double>(f % 3);
      dataset_->add(std::move(s));
    }
    model_ = new nn::DrivingPolicy{};
    nn::Adam opt{1e-3};
    Rng rng{5};
    for (int step = 0; step < 120; ++step) {
      const auto idx = dataset_->sample_batch(rng, 32);
      std::vector<const data::Sample*> batch;
      for (const auto i : idx) batch.push_back(&(*dataset_)[i]);
      model_->train_batch(batch, opt);
    }
  }
  static void TearDownTestSuite() {
    delete world_;
    delete dataset_;
    delete model_;
    world_ = nullptr;
    dataset_ = nullptr;
    model_ = nullptr;
  }

  static sim::World* world_;
  static data::WeightedDataset* dataset_;
  static nn::DrivingPolicy* model_;
};

sim::World* CoresetFixture::world_ = nullptr;
data::WeightedDataset* CoresetFixture::dataset_ = nullptr;
nn::DrivingPolicy* CoresetFixture::model_ = nullptr;

TEST_F(CoresetFixture, PartitionCenterIsMinimumLoss) {
  const LayerPartition part = partition_into_layers(*model_, *dataset_);
  double min_loss = 1e18;
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    min_loss = std::min(min_loss, model_->sample_loss((*dataset_)[i]));
  }
  EXPECT_NEAR(part.center_loss, min_loss, 1e-12);
  EXPECT_GT(part.ring_radius, 0.0);
}

TEST_F(CoresetFixture, PartitionAssignsEverySampleWithinLayerBound) {
  const LayerPartition part = partition_into_layers(*model_, *dataset_);
  ASSERT_EQ(part.layer_of.size(), dataset_->size());
  const int max_layer =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(dataset_->size()) + 1.0)));
  for (const int l : part.layer_of) {
    EXPECT_GE(l, 0);
    EXPECT_LE(l, max_layer);
  }
  EXPECT_GE(part.num_layers, 1);
}

TEST_F(CoresetFixture, PartitionRingGeometry) {
  // Samples with loss distance <= R land in layer 0; larger losses land in
  // geometrically growing rings.
  const LayerPartition part = partition_into_layers(*model_, *dataset_);
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    const double dist = model_->sample_loss((*dataset_)[i]) - part.center_loss;
    if (part.layer_of[i] == 0) {
      EXPECT_LE(dist, part.ring_radius * 2.0 + 1e-9);
    } else {
      EXPECT_GT(dist, part.ring_radius - 1e-12);
    }
  }
}

TEST_F(CoresetFixture, BuildHitsTargetSize) {
  CoresetConfig cfg;
  cfg.target_size = 60;
  Rng rng{11};
  const Coreset c = build_layered_coreset(*dataset_, *model_, cfg, rng);
  EXPECT_EQ(c.size(), 60u);
  EXPECT_EQ(c.wc.size(), c.samples.size());
}

TEST_F(CoresetFixture, CoresetMassMatchesDatasetMass) {
  // The per-layer w_C assignment preserves each layer's weight mass, so the
  // coreset's total weight equals the dataset's total weight.
  CoresetConfig cfg;
  cfg.target_size = 80;
  Rng rng{13};
  const Coreset c = build_layered_coreset(*dataset_, *model_, cfg, rng);
  EXPECT_NEAR(c.total_weight(), dataset_->total_weight(),
              1e-6 * dataset_->total_weight());
}

TEST_F(CoresetFixture, EpsilonCoresetApproximation) {
  // The defining property (Def. II.2): f(x; C) approximates f(x; D) within a
  // modest relative error — for the model the coreset was built against AND
  // for a different model (approximate robustness across the ball).
  CoresetConfig cfg;
  cfg.target_size = 100;
  Rng rng{17};
  const Coreset c = build_layered_coreset(*dataset_, *model_, cfg, rng);

  const double full = penalized_loss(*model_, dataset_->samples(), {}, cfg.penalty);
  const double approx = evaluate_on_coreset(*model_, c, cfg.penalty);
  EXPECT_NEAR(approx, full, 0.25 * full) << "coreset loss off by more than 25%";

  const nn::DrivingPolicy other{{}, 99};  // untrained model, same ball-ish
  const double full_other = penalized_loss(other, dataset_->samples(), {}, cfg.penalty);
  const double approx_other = evaluate_on_coreset(other, c, cfg.penalty);
  EXPECT_NEAR(approx_other, full_other, 0.35 * full_other);
}

TEST_F(CoresetFixture, SmallerCoresetsApproximateWorseOnAverage) {
  // Property sweep motivating Table IV: tiny coresets are noisier estimators.
  CoresetConfig cfg;
  double err_small = 0.0;
  double err_large = 0.0;
  const double full = penalized_loss(*model_, dataset_->samples(), {}, cfg.penalty);
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng{static_cast<std::uint64_t>(100 + rep)};
    cfg.target_size = 10;
    err_small += std::abs(
        evaluate_on_coreset(*model_, build_layered_coreset(*dataset_, *model_, cfg, rng),
                            cfg.penalty) -
        full);
    cfg.target_size = 120;
    err_large += std::abs(
        evaluate_on_coreset(*model_, build_layered_coreset(*dataset_, *model_, cfg, rng),
                            cfg.penalty) -
        full);
  }
  EXPECT_LT(err_large, err_small);
}

TEST_F(CoresetFixture, DegenerateTargetReturnsWholeDataset) {
  CoresetConfig cfg;
  cfg.target_size = dataset_->size() + 100;
  Rng rng{19};
  const Coreset c = build_layered_coreset(*dataset_, *model_, cfg, rng);
  EXPECT_EQ(c.size(), dataset_->size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.wc[i], c.samples[i].weight);  // w_C == w for the full set
  }
}

TEST_F(CoresetFixture, MergePreservesMassAndSize) {
  CoresetConfig cfg;
  cfg.target_size = 50;
  Rng rng_a{21};
  Rng rng_b{23};
  const Coreset a = build_layered_coreset(*dataset_, *model_, cfg, rng_a);
  const Coreset b = build_layered_coreset(*dataset_, *model_, cfg, rng_b);
  const Coreset merged = merge_coresets(a, b);
  EXPECT_EQ(merged.size(), a.size() + b.size());
  EXPECT_NEAR(merged.total_weight(), a.total_weight() + b.total_weight(), 1e-6);
}

TEST_F(CoresetFixture, ReduceKeepsSizeConstantAndMass) {
  CoresetConfig cfg;
  cfg.target_size = 50;
  Rng rng{29};
  const Coreset a = build_layered_coreset(*dataset_, *model_, cfg, rng);
  const Coreset b = build_layered_coreset(*dataset_, *model_, cfg, rng);
  const Coreset merged = merge_coresets(a, b);
  Rng reduce_rng{31};
  const Coreset reduced = reduce_coreset(merged, *model_, 50, reduce_rng);
  EXPECT_EQ(reduced.size(), 50u);
  EXPECT_NEAR(reduced.total_weight(), merged.total_weight(),
              1e-6 * merged.total_weight());
}

TEST_F(CoresetFixture, ReduceIsNoOpWhenAlreadySmall) {
  CoresetConfig cfg;
  cfg.target_size = 40;
  Rng rng{37};
  const Coreset a = build_layered_coreset(*dataset_, *model_, cfg, rng);
  const Coreset same = reduce_coreset(a, *model_, 50, rng);
  EXPECT_EQ(same.size(), a.size());
}

// Reference: the two-pass Eq. (6) evaluation penalized_loss made before the
// terms shared per-sample losses — one forward pass for the empirical term
// and a second one inside the command-balance reduction.
double naive_param_norm(const nn::DrivingPolicy& m) { return nn::param_l2_norm(m.params()); }
double naive_param_norm(const nn::Int8Policy& m) { return m.param_l2_norm(); }

template <class Model>
double naive_command_balance(const Model& model, std::span<const data::Sample> samples,
                             std::span<const double> weights) {
  if (samples.empty()) return 0.0;
  std::array<double, data::kNumCommands> loss_mass{};
  std::array<double, data::kNumCommands> weight_mass{};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double w = weights.empty() ? samples[i].weight : weights[i];
    if (w <= 0.0) continue;
    const auto c = static_cast<std::size_t>(samples[i].command);
    loss_mass[c] += w * model.sample_loss(samples[i]);
    weight_mass[c] += w;
  }
  std::vector<double> per_command;
  for (std::size_t c = 0; c < data::kNumCommands; ++c) {
    if (weight_mass[c] > 0.0) per_command.push_back(loss_mass[c] / weight_mass[c]);
  }
  if (per_command.size() < 2) return 0.0;
  double total = 0.0;
  for (const double v : per_command) total += v;
  if (total < 1e-12) return 0.0;
  return std::log(static_cast<double>(per_command.size())) - entropy(per_command);
}

template <class Model>
double naive_penalized_loss(const Model& model, std::span<const data::Sample> samples,
                            std::span<const double> weights, const PenaltyConfig& penalty) {
  double empirical = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double w = weights.empty() ? samples[i].weight : weights[i];
    if (w <= 0.0) continue;
    empirical += w * model.sample_loss(samples[i]);
  }
  return empirical + penalty.lambda1 * naive_param_norm(model) +
         penalty.lambda2 * naive_command_balance(model, samples, weights);
}

TEST_F(CoresetFixture, PenalizedLossMatchesTwoPassReferenceBitForBit) {
  constexpr std::size_t kN = 120;
  const std::span<const data::Sample> samples{dataset_->samples().data(), kN};
  std::vector<double> with_zeros(kN);
  std::vector<double> with_negatives(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    with_zeros[i] = i % 3 == 0 ? 0.0 : 0.5 + static_cast<double>(i % 5);
    with_negatives[i] = i % 4 == 1 ? -2.0 : 1.0 + static_cast<double>(i % 7);
  }
  const std::vector<double> all_zero(kN, 0.0);
  const std::vector<std::vector<double>> weight_sets = {{}, with_zeros, with_negatives, all_zero};
  const nn::Int8Policy quantized{*model_};
  for (const PenaltyConfig penalty : {PenaltyConfig{}, PenaltyConfig{1e-3, 1.0}}) {
    for (std::size_t s = 0; s < weight_sets.size(); ++s) {
      const std::span<const double> w = weight_sets[s];
      EXPECT_EQ(penalized_loss(*model_, samples, w, penalty),
                naive_penalized_loss(*model_, samples, w, penalty))
          << "weight set " << s;
      EXPECT_EQ(penalized_loss(quantized, samples, w, penalty),
                naive_penalized_loss(quantized, samples, w, penalty))
          << "int8, weight set " << s;
      EXPECT_EQ(command_balance_penalty(*model_, samples, w),
                naive_command_balance(*model_, samples, w))
          << "weight set " << s;
    }
    EXPECT_EQ(penalized_loss(*model_, {}, {}, penalty),
              naive_penalized_loss(*model_, std::span<const data::Sample>{}, {}, penalty));
  }
}

/// Pooled per-sample sweeps must reproduce the sequential ones bit for bit:
/// every loss lands in its own slot and all reductions run on the caller.
/// Three lanes split 2 and 4 samples unevenly; 0 and 1 run inline.
TEST_F(CoresetFixture, PooledSweepsMatchSequentialBitForBit) {
  ThreadPool pool{3};
  std::vector<data::Sample> all = dataset_->samples();
  all.push_back(all.front());  // 301 samples
  const nn::Int8Policy quantized{*model_};
  const PenaltyConfig penalty{1e-3, 1.0};
  for (const std::size_t n : {0u, 1u, 2u, 4u, 301u}) {
    const std::span<const data::Sample> samples{all.data(), n};
    std::vector<double> mixed(n);
    for (std::size_t i = 0; i < n; ++i) {
      mixed[i] = i % 3 == 0 ? 0.0 : i % 4 == 1 ? -1.5 : 0.5 + static_cast<double>(i % 5);
    }
    using Weights = std::span<const double>;
    for (const Weights w : {Weights{}, Weights{mixed}}) {
      EXPECT_EQ(penalized_loss(*model_, samples, w, penalty, &pool),
                penalized_loss(*model_, samples, w, penalty))
          << "n=" << n;
      EXPECT_EQ(penalized_loss(quantized, samples, w, penalty, &pool),
                penalized_loss(quantized, samples, w, penalty))
          << "int8, n=" << n;
    }
  }
  const LayerPartition seq = partition_into_layers(*model_, *dataset_);
  const LayerPartition pooled = partition_into_layers(*model_, *dataset_, &pool);
  EXPECT_EQ(seq.center_loss, pooled.center_loss);
  EXPECT_EQ(seq.ring_radius, pooled.ring_radius);
  EXPECT_EQ(seq.layer_of, pooled.layer_of);

  // Build and reduce: identical coresets and identical RNG consumption.
  CoresetConfig cfg;
  cfg.target_size = 40;
  Rng rng_seq{17};
  Rng rng_pool{17};
  const Coreset built_seq = build_layered_coreset(*dataset_, *model_, cfg, rng_seq);
  const Coreset built_pool = build_layered_coreset(*dataset_, *model_, cfg, rng_pool, &pool);
  EXPECT_EQ(built_seq.wc, built_pool.wc);
  const Coreset merged = merge_coresets(built_seq, built_seq);
  const Coreset reduced_seq = reduce_coreset(merged, *model_, 25, rng_seq);
  const Coreset reduced_pool = reduce_coreset(merged, *model_, 25, rng_pool, &pool);
  EXPECT_EQ(reduced_seq.wc, reduced_pool.wc);
  ASSERT_EQ(reduced_seq.size(), reduced_pool.size());
  for (std::size_t i = 0; i < reduced_seq.size(); ++i) {
    EXPECT_EQ(reduced_seq.samples[i].bev.bits, reduced_pool.samples[i].bev.bits) << i;
  }
  EXPECT_EQ(rng_seq.next_u64(), rng_pool.next_u64());
}

TEST_F(CoresetFixture, PooledSweepSkipsUnweightedSamplesAndPropagatesErrors) {
  // A sample whose BEV grid has the wrong size throws if it is ever scored.
  ThreadPool pool{3};
  std::vector<data::Sample> samples(dataset_->samples().begin(),
                                    dataset_->samples().begin() + 30);
  data::Sample broken = samples[0];
  broken.bev.bits.pop_back();
  samples[10] = broken;
  samples[25] = broken;
  std::vector<double> w(samples.size(), 1.0);
  w[10] = 0.0;
  w[25] = -1.0;
  // Zero and negative weights leave their slots unscored on every lane.
  EXPECT_EQ(penalized_loss(*model_, samples, w, {}, &pool), penalized_loss(*model_, samples, w));
  // Scored in the last chunk, the error reaches the caller.
  w[25] = 1.0;
  EXPECT_THROW((void)penalized_loss(*model_, samples, w, {}, &pool), std::invalid_argument);
}

TEST_F(CoresetFixture, LogicalBytesScaleWithSize) {
  CoresetConfig cfg;
  Rng rng{41};
  cfg.target_size = 30;
  const auto small = build_layered_coreset(*dataset_, *model_, cfg, rng);
  cfg.target_size = 120;
  const auto large = build_layered_coreset(*dataset_, *model_, cfg, rng);
  EXPECT_LT(small.logical_bytes(), large.logical_bytes());
  EXPECT_EQ(small.logical_bytes(),
            16u + 30u * (data::packed_sample_bytes(small.spec) + 4u));
}

// --------------------------------------------------------- Eq. (6) penalties

TEST(PenaltyTest, CommandBalanceZeroWhenBalanced) {
  // Craft samples whose losses are identical across commands: entropy gap 0.
  nn::DrivingPolicy model{{}, 3};
  std::vector<data::Sample> samples;
  Rng rng{5};
  data::Sample base;
  base.bev = data::BevGrid{data::kDefaultBevSpec};
  for (int c = 0; c < data::kNumCommands; ++c) {
    data::Sample s = base;
    s.command = static_cast<data::Command>(c);
    const auto pred = model.predict(s.bev, s.command);
    // Perfect labels -> zero loss for every command -> zero masses -> 0 gap.
    for (std::size_t i = 0; i < pred.size(); ++i) s.waypoints[i] = pred[i];
    samples.push_back(std::move(s));
  }
  EXPECT_NEAR(command_balance_penalty(model, samples), 0.0, 1e-9);
}

TEST(PenaltyTest, CommandBalancePositiveWhenSkewed) {
  nn::DrivingPolicy model{{}, 3};
  std::vector<data::Sample> samples;
  data::Sample base;
  base.bev = data::BevGrid{data::kDefaultBevSpec};
  for (int c = 0; c < 2; ++c) {
    data::Sample s = base;
    s.command = static_cast<data::Command>(c);
    const auto pred = model.predict(s.bev, s.command);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      // Command 0 gets perfect labels, command 1 very wrong labels.
      s.waypoints[i] = c == 0 ? pred[i] : pred[i] + 1.0f;
    }
    samples.push_back(std::move(s));
  }
  EXPECT_GT(command_balance_penalty(model, samples), 0.1);
}

TEST(PenaltyTest, PenalizedLossIncludesL2Term) {
  nn::DrivingPolicy model{{}, 7};
  const std::vector<data::Sample> empty;
  PenaltyConfig p;
  p.lambda1 = 0.5;
  p.lambda2 = 0.0;
  const double loss = penalized_loss(model, empty, {}, p);
  EXPECT_NEAR(loss, 0.5 * nn::param_l2_norm(model.params()), 1e-9);
}

TEST(PenaltyTest, WeightsOverrideSampleWeights) {
  nn::DrivingPolicy model{{}, 9};
  data::Sample s;
  s.bev = data::BevGrid{data::kDefaultBevSpec};
  s.weight = 100.0;  // would dominate if used
  const std::vector<data::Sample> samples{s};
  const std::vector<double> weights{1.0};
  PenaltyConfig p;
  p.lambda1 = 0.0;
  p.lambda2 = 0.0;
  EXPECT_NEAR(penalized_loss(model, samples, weights, p), model.sample_loss(s), 1e-9);
  EXPECT_NEAR(penalized_loss(model, samples, {}, p), 100.0 * model.sample_loss(s), 1e-6);
}

TEST(CoresetEdgeTest, EmptyDatasetYieldsEmptyCoreset) {
  data::WeightedDataset empty;
  nn::DrivingPolicy model{{}, 1};
  Rng rng{1};
  const Coreset c = build_layered_coreset(empty, model, {}, rng);
  EXPECT_TRUE(c.empty());
  EXPECT_THROW(partition_into_layers(model, empty), std::invalid_argument);
}

TEST(CoresetEdgeTest, MergeSpecMismatchThrows) {
  Coreset a;
  a.spec = data::BevSpec{4, 16, 16, 2.0};
  a.samples.resize(1);
  a.wc.assign(1, 1.0);
  Coreset b;
  b.spec = data::BevSpec{4, 8, 8, 2.0};
  b.samples.resize(1);
  b.wc.assign(1, 1.0);
  EXPECT_THROW(merge_coresets(a, b), std::invalid_argument);
}

class CoresetSizeSweep : public CoresetFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(CoresetSizeSweep, ExactTargetForAnySize) {
  CoresetConfig cfg;
  cfg.target_size = GetParam();
  Rng rng{43};
  const Coreset c = build_layered_coreset(*dataset_, *model_, cfg, rng);
  EXPECT_EQ(c.size(), std::min<std::size_t>(GetParam(), dataset_->size()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CoresetSizeSweep,
                         ::testing::Values(1, 5, 15, 50, 150, 299, 300, 500));

}  // namespace
}  // namespace lbchat::coreset
