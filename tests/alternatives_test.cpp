// Tests for the §V extension: alternative coreset constructions.
#include <gtest/gtest.h>

#include "coreset/alternatives.h"
#include "nn/optim.h"
#include "sim/world.h"

namespace lbchat {
namespace {

// ------------------------------------------------ alternative coresets

class AltCoresetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::World world{sim::WorldConfig{}, 1, 7};
    dataset_ = new data::WeightedDataset{data::kDefaultBevSpec};
    for (std::uint64_t f = 0; f < 250; ++f) {
      world.step(0.5);
      data::Sample s = world.collect_sample(0, f);
      s.weight = 1.0 + static_cast<double>(f % 4);
      dataset_->add(std::move(s));
    }
    model_ = new nn::DrivingPolicy{};
    nn::Adam opt{1e-3};
    Rng rng{5};
    for (int step = 0; step < 100; ++step) {
      const auto idx = dataset_->sample_batch(rng, 32);
      std::vector<const data::Sample*> batch;
      for (const auto i : idx) batch.push_back(&(*dataset_)[i]);
      model_->train_batch(batch, opt);
    }
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete model_;
    dataset_ = nullptr;
    model_ = nullptr;
  }
  static data::WeightedDataset* dataset_;
  static nn::DrivingPolicy* model_;
};

data::WeightedDataset* AltCoresetFixture::dataset_ = nullptr;
nn::DrivingPolicy* AltCoresetFixture::model_ = nullptr;

class CoresetMethodTest : public AltCoresetFixture,
                          public ::testing::WithParamInterface<coreset::CoresetMethod> {};

TEST_P(CoresetMethodTest, HitsTargetSizeAndPreservesMass) {
  coreset::CoresetConfig cfg;
  cfg.target_size = 60;
  Rng rng{11};
  const auto c = coreset::build_coreset(GetParam(), *dataset_, *model_, cfg, rng);
  EXPECT_EQ(c.size(), 60u);
  // Every construction keeps the coreset on the f(x; D) scale: total mass
  // within 25% of the dataset mass (sensitivity weighting is only unbiased
  // in expectation, so allow slack).
  EXPECT_NEAR(c.total_weight(), dataset_->total_weight(),
              0.25 * dataset_->total_weight());
}

TEST_P(CoresetMethodTest, ApproximatesDatasetLoss) {
  coreset::CoresetConfig cfg;
  cfg.target_size = 100;
  Rng rng{13};
  const auto c = coreset::build_coreset(GetParam(), *dataset_, *model_, cfg, rng);
  const double full = coreset::penalized_loss(*model_, dataset_->samples(), {}, cfg.penalty);
  const double approx = coreset::evaluate_on_coreset(*model_, c, cfg.penalty);
  EXPECT_NEAR(approx, full, 0.4 * full)
      << coreset::coreset_method_name(GetParam()) << " approximation too loose";
}

TEST_P(CoresetMethodTest, DegenerateTargetsHandled) {
  coreset::CoresetConfig cfg;
  Rng rng{17};
  cfg.target_size = 0;
  EXPECT_TRUE(coreset::build_coreset(GetParam(), *dataset_, *model_, cfg, rng).empty());
  cfg.target_size = dataset_->size() + 10;
  EXPECT_EQ(coreset::build_coreset(GetParam(), *dataset_, *model_, cfg, rng).size(),
            dataset_->size());
}

INSTANTIATE_TEST_SUITE_P(Methods, CoresetMethodTest,
                         ::testing::Values(coreset::CoresetMethod::kLayered,
                                           coreset::CoresetMethod::kUniform,
                                           coreset::CoresetMethod::kSensitivity,
                                           coreset::CoresetMethod::kClustering));

TEST(CoresetMethodNamesTest, AllDistinct) {
  std::set<std::string_view> names;
  for (const auto m : {coreset::CoresetMethod::kLayered, coreset::CoresetMethod::kUniform,
                       coreset::CoresetMethod::kSensitivity,
                       coreset::CoresetMethod::kClustering}) {
    names.insert(coreset::coreset_method_name(m));
  }
  EXPECT_EQ(names.size(), 4u);
}

TEST_F(AltCoresetFixture, ClusteringSpreadsAcrossLossRange) {
  coreset::CoresetConfig cfg;
  cfg.target_size = 40;
  Rng rng{19};
  const auto c =
      coreset::build_clustering_coreset(*dataset_, *model_, cfg, rng);
  // k-centre picks extremes first: the coreset's loss range should span most
  // of the dataset's loss range.
  double ds_min = 1e18;
  double ds_max = -1e18;
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    const double l = model_->sample_loss((*dataset_)[i]);
    ds_min = std::min(ds_min, l);
    ds_max = std::max(ds_max, l);
  }
  double cs_min = 1e18;
  double cs_max = -1e18;
  for (const auto& s : c.samples) {
    const double l = model_->sample_loss(s);
    cs_min = std::min(cs_min, l);
    cs_max = std::max(cs_max, l);
  }
  EXPECT_LT(cs_min, ds_min + 0.1 * (ds_max - ds_min));
  EXPECT_GT(cs_max, ds_max - 0.1 * (ds_max - ds_min));
}

}  // namespace
}  // namespace lbchat
