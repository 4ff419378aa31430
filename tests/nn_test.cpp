// Unit tests for the neural-network library: layer forward math, gradient
// checks against finite differences, GEMM-vs-naive parity, optimizers, and
// the driving policy.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "data/frame.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/policy.h"

namespace lbchat::nn {
namespace {

TEST(ParamStoreTest, AllocateAndViews) {
  ParamStore store;
  const auto a = store.allocate(4);
  const auto b = store.allocate(3);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(store.size(), 7u);
  store.param(a, 4)[2] = 1.5f;
  EXPECT_FLOAT_EQ(store.params()[2], 1.5f);
  store.grad(b, 3)[0] = -2.0f;
  store.zero_grads();
  EXPECT_FLOAT_EQ(store.grads()[4], 0.0f);
}

TEST(LinearTest, ForwardKnownValues) {
  ParamStore store;
  Rng init{1};
  Linear lin{store, 2, 3, init};
  // Overwrite with known weights: W = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 1].
  auto w = store.param(lin.w_off, 6);
  const float wv[6] = {1, 2, 3, 4, 5, 6};
  std::copy(wv, wv + 6, w.begin());
  auto b = store.param(lin.b_off, 3);
  const float bv[3] = {0.5f, -0.5f, 1.0f};
  std::copy(bv, bv + 3, b.begin());

  const std::vector<float> x{1.0f, -1.0f};
  std::vector<float> y(3, 0.0f);
  lin.forward(store, x, y, 1);
  EXPECT_FLOAT_EQ(y[0], 1 * 1 + 2 * -1 + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 3 * 1 + 4 * -1 - 0.5f);
  EXPECT_FLOAT_EQ(y[2], 5 * 1 + 6 * -1 + 1.0f);
}

TEST(LinearTest, GradientMatchesFiniteDifferences) {
  ParamStore store;
  Rng init{2};
  Linear lin{store, 3, 2, init};
  const std::vector<float> x{0.5f, -1.0f, 2.0f, 1.0f, 0.0f, -0.5f};  // batch of 2
  const std::vector<float> gy{1.0f, -2.0f, 0.5f, 1.5f};

  // Analytic gradients.
  std::vector<float> gx(x.size(), 0.0f);
  std::vector<float> y(4, 0.0f);
  lin.forward(store, x, y, 2);
  lin.backward(store, x, gy, gx, 2);

  // Scalar objective J = sum(gy * y) so dJ/dparam is exactly the backward's
  // accumulation and dJ/dx is gx.
  const auto objective = [&](std::span<const float> input) {
    std::vector<float> out(4, 0.0f);
    lin.forward(store, input, out, 2);
    double j = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) j += gy[i] * out[i];
    return j;
  };
  const double eps = 1e-3;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<float> xp = x;
    std::vector<float> xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double fd = (objective(xp) - objective(xm)) / (2.0 * eps);
    EXPECT_NEAR(gx[i], fd, 1e-2) << "input grad " << i;
  }
  // Parameter gradients.
  for (const std::size_t off : {lin.w_off, lin.b_off}) {
    const std::size_t count = off == lin.w_off ? 6u : 2u;
    for (std::size_t i = 0; i < count; ++i) {
      const float orig = store.params()[off + i];
      store.params()[off + i] = orig + static_cast<float>(eps);
      const double jp = objective(x);
      store.params()[off + i] = orig - static_cast<float>(eps);
      const double jm = objective(x);
      store.params()[off + i] = orig;
      const double fd = (jp - jm) / (2.0 * eps);
      EXPECT_NEAR(store.grads()[off + i], fd, 1e-2) << "param grad " << off + i;
    }
  }
}

TEST(Conv2dTest, OutputShape) {
  ParamStore store;
  Rng init{3};
  Conv2d conv{store, 4, 8, 16, 16, 3, 2, 1, init};
  EXPECT_EQ(conv.out_h, 8);
  EXPECT_EQ(conv.out_w, 8);
  Conv2d conv2{store, 8, 16, 8, 8, 3, 2, 1, init};
  EXPECT_EQ(conv2.out_h, 4);
  EXPECT_EQ(conv2.out_w, 4);
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  ParamStore store;
  Rng init{4};
  Conv2d conv{store, 1, 1, 4, 4, 3, 1, 1, init};
  auto w = store.param(conv.w_off, 9);
  std::fill(w.begin(), w.end(), 0.0f);
  w[4] = 1.0f;  // centre tap
  store.param(conv.b_off, 1)[0] = 0.0f;
  std::vector<float> x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i) * 0.1f;
  std::vector<float> y(16, 0.0f);
  std::vector<float> col;
  conv.forward(store, x, y, 1, col);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(y[i], x[i], 1e-6);
}

TEST(Conv2dTest, GradientMatchesFiniteDifferences) {
  ParamStore store;
  Rng init{5};
  Conv2d conv{store, 2, 3, 5, 5, 3, 2, 1, init};
  Rng data{6};
  std::vector<float> x(static_cast<std::size_t>(2 * 5 * 5));
  for (float& v : x) v = static_cast<float>(data.normal());
  std::vector<float> gy(conv.out_numel());
  for (float& v : gy) v = static_cast<float>(data.normal());

  std::vector<float> y(conv.out_numel(), 0.0f);
  std::vector<float> gx(x.size(), 0.0f);
  std::vector<float> col;
  std::vector<float> gcol;
  store.zero_grads();
  conv.forward(store, x, y, 1, col);
  conv.backward(store, x, gy, gx, 1, col, gcol);

  const auto objective = [&](std::span<const float> input) {
    std::vector<float> out(conv.out_numel(), 0.0f);
    conv.forward(store, input, out, 1, col);
    double j = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) j += gy[i] * out[i];
    return j;
  };
  const double eps = 1e-3;
  // Spot-check a spread of input coordinates.
  for (const std::size_t i : {0u, 7u, 13u, 24u, 31u, 49u}) {
    std::vector<float> xp = x;
    std::vector<float> xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double fd = (objective(xp) - objective(xm)) / (2.0 * eps);
    EXPECT_NEAR(gx[i], fd, 2e-2) << "conv input grad " << i;
  }
  // Spot-check parameter gradients (weights + a bias).
  for (const std::size_t i : {0u, 5u, 17u, 26u, 53u}) {
    const float orig = store.params()[conv.w_off + i];
    store.params()[conv.w_off + i] = orig + static_cast<float>(eps);
    const double jp = objective(x);
    store.params()[conv.w_off + i] = orig - static_cast<float>(eps);
    const double jm = objective(x);
    store.params()[conv.w_off + i] = orig;
    EXPECT_NEAR(store.grads()[conv.w_off + i], (jp - jm) / (2.0 * eps), 2e-2);
  }
}

// -------------------------------------------------- GEMM / naive parity

float max_abs_diff(std::span<const float> a, std::span<const float> b) {
  EXPECT_EQ(a.size(), b.size());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(GemmTest, BlockedKernelsMatchNaive) {
  Rng rng{101};
  // Shapes straddling the 4-row register block and the kGemmKBlock K tile.
  const int shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {4, 4, 64},
                           {8, 64, 36}, {17, 9, 129}, {5, 33, 70}};
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1], k = s[2];
    const auto base = random_vec(static_cast<std::size_t>(m) * n, rng);
    {
      const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
      const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
      auto c0 = base, c1 = base;
      naive_sgemm(m, n, k, a.data(), b.data(), c0.data());
      sgemm(m, n, k, a.data(), b.data(), c1.data());
      EXPECT_LE(max_abs_diff(c0, c1), 1e-4f) << "sgemm " << m << "x" << n << "x" << k;
    }
    {
      const auto a = random_vec(static_cast<std::size_t>(k) * m, rng);
      const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
      auto c0 = base, c1 = base;
      naive_sgemm_atb(m, n, k, a.data(), b.data(), c0.data());
      sgemm_atb(m, n, k, a.data(), b.data(), c1.data());
      EXPECT_LE(max_abs_diff(c0, c1), 1e-4f) << "sgemm_atb " << m << "x" << n << "x" << k;
    }
    {
      const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
      const auto b = random_vec(static_cast<std::size_t>(n) * k, rng);
      auto c0 = base, c1 = base;
      naive_sgemm_abt(m, n, k, a.data(), b.data(), c0.data());
      sgemm_abt(m, n, k, a.data(), b.data(), c1.data());
      EXPECT_LE(max_abs_diff(c0, c1), 1e-4f) << "sgemm_abt " << m << "x" << n << "x" << k;
    }
  }
}

struct ConvShape {
  int in_ch, out_ch, in_h, in_w, kernel, stride, pad, batch;
};

class Conv2dParityTest : public ::testing::TestWithParam<ConvShape> {};

TEST_P(Conv2dParityTest, GemmPathMatchesNaive) {
  const ConvShape p = GetParam();
  ParamStore store;
  Rng init{211};
  Conv2d conv{store, p.in_ch, p.out_ch, p.in_h, p.in_w, p.kernel, p.stride, p.pad, init};
  Rng data{223};
  const auto x =
      random_vec(static_cast<std::size_t>(p.batch) * conv.in_numel(), data);
  const auto gy =
      random_vec(static_cast<std::size_t>(p.batch) * conv.out_numel(), data);

  // Forward parity.
  std::vector<float> y_naive(gy.size(), 0.0f);
  std::vector<float> y_gemm(gy.size(), 0.0f);
  std::vector<float> col;
  std::vector<float> gcol;
  conv.naive_forward(store, x, y_naive, p.batch);
  conv.forward(store, x, y_gemm, p.batch, col);
  EXPECT_LE(max_abs_diff(y_naive, y_gemm), 1e-4f);

  // Backward parity: param grads and input grads.
  std::vector<float> gx_naive(x.size(), 0.0f);
  std::vector<float> gx_gemm(x.size(), 0.0f);
  store.zero_grads();
  conv.naive_backward(store, x, gy, gx_naive, p.batch);
  const std::vector<float> grads_naive{store.grads().begin(), store.grads().end()};
  store.zero_grads();
  conv.backward(store, x, gy, gx_gemm, p.batch, col, gcol);
  EXPECT_LE(max_abs_diff(grads_naive, store.grads()), 1e-4f);
  EXPECT_LE(max_abs_diff(gx_naive, gx_gemm), 1e-4f);

  // gx may be skipped (first layer): param grads must be unaffected.
  store.zero_grads();
  conv.backward(store, x, gy, /*gx=*/{}, p.batch, col, gcol);
  EXPECT_LE(max_abs_diff(grads_naive, store.grads()), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dParityTest,
    ::testing::Values(ConvShape{1, 1, 5, 5, 3, 1, 1, 1},    // minimal
                      ConvShape{2, 3, 7, 6, 3, 2, 1, 2},    // stride 2, rect input
                      ConvShape{3, 4, 9, 9, 5, 2, 2, 3},    // 5x5 kernel, pad 2
                      ConvShape{2, 2, 6, 6, 3, 3, 0, 2},    // stride 3, no pad
                      ConvShape{4, 8, 16, 16, 3, 2, 1, 4},  // the policy's conv1
                      ConvShape{8, 16, 8, 8, 3, 2, 1, 4})); // the policy's conv2

TEST(LinearParityTest, GemmPathMatchesNaive) {
  const int shapes[][3] = {{3, 2, 1}, {17, 5, 4}, {256, 64, 32}, {64, 32, 7}};
  for (const auto& s : shapes) {
    const int in = s[0], out = s[1], batch = s[2];
    ParamStore store;
    Rng init{307};
    Linear lin{store, in, out, init};
    Rng data{311};
    const auto x = random_vec(static_cast<std::size_t>(batch) * in, data);
    const auto gy = random_vec(static_cast<std::size_t>(batch) * out, data);

    std::vector<float> y_naive(gy.size(), 0.0f);
    std::vector<float> y_gemm(gy.size(), 0.0f);
    lin.naive_forward(store, x, y_naive, batch);
    lin.forward(store, x, y_gemm, batch);
    EXPECT_LE(max_abs_diff(y_naive, y_gemm), 1e-4f) << in << "->" << out << " b" << batch;

    std::vector<float> gx_naive(x.size(), 0.0f);
    std::vector<float> gx_gemm(x.size(), 0.0f);
    store.zero_grads();
    lin.naive_backward(store, x, gy, gx_naive, batch);
    const std::vector<float> grads_naive{store.grads().begin(), store.grads().end()};
    store.zero_grads();
    lin.backward(store, x, gy, gx_gemm, batch);
    EXPECT_LE(max_abs_diff(grads_naive, store.grads()), 1e-4f);
    EXPECT_LE(max_abs_diff(gx_naive, gx_gemm), 1e-4f);
  }
}

TEST(ReluTest, ForwardAndBackward) {
  std::vector<float> x{-1.0f, 0.0f, 2.0f};
  relu_forward(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.0f);
  std::vector<float> gy{5.0f, 5.0f, 5.0f};
  relu_backward(x, gy);
  EXPECT_FLOAT_EQ(gy[0], 0.0f);  // dead unit
  EXPECT_FLOAT_EQ(gy[1], 0.0f);
  EXPECT_FLOAT_EQ(gy[2], 5.0f);
}

// ---------------------------------------------------------------- optimizers

TEST(AdamTest, FirstStepHasLearningRateMagnitude) {
  Adam opt{0.01};
  std::vector<float> p{0.0f};
  const std::vector<float> g{0.5f};
  opt.step(p, g);
  // Bias correction makes the first Adam step ~= -lr * sign(g).
  EXPECT_NEAR(p[0], -0.01f, 1e-4);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam opt{0.05};
  std::vector<float> p{3.0f};
  for (int i = 0; i < 800; ++i) {
    const std::vector<float> g{2.0f * p[0]};  // d/dp of p^2
    opt.step(p, g);
  }
  EXPECT_NEAR(p[0], 0.0f, 0.01f);
}

TEST(AdamTest, ResetClearsState) {
  Adam opt{0.01};
  std::vector<float> p{0.0f};
  const std::vector<float> g{1.0f};
  opt.step(p, g);
  const float after_one = p[0];
  opt.reset();
  std::vector<float> q{0.0f};
  opt.step(q, g);
  EXPECT_FLOAT_EQ(q[0], after_one);
}

TEST(OptimizerTest, CloneCopiesHyperparameters) {
  Adam opt{0.07, 0.8, 0.99, 1e-6, 0.01};
  auto clone = opt.clone();
  EXPECT_DOUBLE_EQ(clone->learning_rate(), 0.07);
  // Identical steps from identical inputs: beta1/beta2/eps/decay came along.
  std::vector<float> p{1.0f, -2.0f};
  std::vector<float> q = p;
  const std::vector<float> g{0.3f, 0.5f};
  for (int i = 0; i < 3; ++i) {
    opt.step(p, g);
    clone->step(q, g);
  }
  EXPECT_EQ(p, q);
}

// ---------------------------------------------------------------- policy

data::Sample make_sample(Rng& rng, data::Command cmd) {
  data::Sample s;
  s.bev = data::BevGrid{data::kDefaultBevSpec};
  for (auto& c : s.bev.cells) c = rng.chance(0.2) ? 1 : 0;
  s.command = cmd;
  for (auto& w : s.waypoints) w = static_cast<float>(rng.uniform(-0.5, 0.5));
  s.id = rng.next_u64();
  return s;
}

TEST(PolicyTest, ParameterCountMatchesArchitecture) {
  const DrivingPolicy p;
  // conv1 4->8 3x3 (+bias), conv2 8->16 3x3 (+bias), fc 256->64 (+bias),
  // 4 branches of (64->32 + 32->8) with biases.
  const std::size_t expected = (4 * 8 * 9 + 8) + (8 * 16 * 9 + 16) + (256 * 64 + 64) +
                               4 * ((64 * 32 + 32) + (32 * 8 + 8));
  EXPECT_EQ(p.param_count(), expected);
}

TEST(PolicyTest, IdenticalSeedsIdenticalParams) {
  const DrivingPolicy a{{}, 42};
  const DrivingPolicy b{{}, 42};
  ASSERT_EQ(a.param_count(), b.param_count());
  for (std::size_t i = 0; i < a.param_count(); ++i) {
    EXPECT_FLOAT_EQ(a.params()[i], b.params()[i]);
  }
}

TEST(PolicyTest, SetParamsRoundtrip) {
  DrivingPolicy a{{}, 1};
  const DrivingPolicy b{{}, 2};
  a.set_params(b.params());
  Rng rng{3};
  const auto s = make_sample(rng, data::Command::kLeft);
  const auto pa = a.predict(s.bev, s.command);
  const auto pb = b.predict(s.bev, s.command);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_FLOAT_EQ(pa[i], pb[i]);
}

TEST(PolicyTest, SetParamsRejectsWrongSize) {
  DrivingPolicy p;
  EXPECT_THROW(p.set_params(std::vector<float>(3, 0.0f)), std::invalid_argument);
}

TEST(PolicyTest, CommandBranchesDiffer) {
  const DrivingPolicy p{{}, 7};
  Rng rng{5};
  const auto s = make_sample(rng, data::Command::kFollow);
  const auto follow = p.predict(s.bev, data::Command::kFollow);
  const auto left = p.predict(s.bev, data::Command::kLeft);
  double diff = 0.0;
  for (std::size_t i = 0; i < follow.size(); ++i) {
    diff += std::abs(static_cast<double>(follow[i]) - left[i]);
  }
  EXPECT_GT(diff, 1e-6);  // distinct branch heads produce distinct outputs
}

TEST(PolicyTest, SampleLossIsMeanAbsoluteError) {
  const DrivingPolicy p{{}, 9};
  Rng rng{11};
  const auto s = make_sample(rng, data::Command::kRight);
  const auto pred = p.predict(s.bev, s.command);
  double expected = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    expected += std::abs(static_cast<double>(pred[i]) - s.waypoints[i]);
  }
  expected /= static_cast<double>(pred.size());
  EXPECT_NEAR(p.sample_loss(s), expected, 1e-6);
}

TEST(PolicyTest, WeightedLossRespectsWeights) {
  const DrivingPolicy p{{}, 13};
  Rng rng{17};
  const std::vector<data::Sample> samples{make_sample(rng, data::Command::kFollow),
                                          make_sample(rng, data::Command::kLeft)};
  const double l0 = p.sample_loss(samples[0]);
  const double l1 = p.sample_loss(samples[1]);
  const std::vector<double> weights{3.0, 1.0};
  EXPECT_NEAR(p.weighted_loss(samples, weights), (3.0 * l0 + l1) / 4.0, 1e-9);
  EXPECT_NEAR(p.weighted_loss(samples), (l0 + l1) / 2.0, 1e-9);
  EXPECT_THROW((void)p.weighted_loss(samples, std::vector<double>{1.0}),
               std::invalid_argument);
}

class PolicyTrainingTest : public ::testing::TestWithParam<data::Command> {};

TEST_P(PolicyTrainingTest, OverfitsSmallDataset) {
  DrivingPolicy p{{}, 21};
  Adam opt{2e-3};
  Rng rng{23};
  std::vector<data::Sample> samples;
  for (int i = 0; i < 8; ++i) samples.push_back(make_sample(rng, GetParam()));
  std::vector<const data::Sample*> batch;
  for (const auto& s : samples) batch.push_back(&s);
  const double before = p.weighted_loss(samples);
  double last = before;
  for (int step = 0; step < 150; ++step) last = p.train_batch(batch, opt);
  EXPECT_LT(last, before * 0.3) << "training failed to reduce loss";
}

INSTANTIATE_TEST_SUITE_P(AllCommands, PolicyTrainingTest,
                         ::testing::Values(data::Command::kFollow, data::Command::kLeft,
                                           data::Command::kRight, data::Command::kStraight));

TEST(PolicyTest, ComputeBatchGradientDoesNotChangeParams) {
  DrivingPolicy p{{}, 25};
  Rng rng{27};
  const auto s = make_sample(rng, data::Command::kFollow);
  const data::Sample* batch[1] = {&s};
  const std::vector<float> before{p.params().begin(), p.params().end()};
  p.compute_batch_gradient(batch);
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(p.params()[i], before[i]);
  // And the gradient buffer is non-trivial.
  double gsum = 0.0;
  for (const float g : p.grads()) gsum += std::abs(static_cast<double>(g));
  EXPECT_GT(gsum, 0.0);
}

TEST(PolicyTest, ParamL2Norm) {
  EXPECT_DOUBLE_EQ(param_l2_norm(std::vector<float>{3.0f, 4.0f}), 5.0);
  EXPECT_DOUBLE_EQ(param_l2_norm(std::vector<float>{}), 0.0);
}

}  // namespace
}  // namespace lbchat::nn
