// Unit tests for the neural-network library: layer forward math, gradient
// checks against finite differences, GEMM-vs-naive parity, optimizers, and
// the driving policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "data/frame.h"
#include "nn/gemm.h"
#include "nn/int8_policy.h"
#include "nn/kernel_dispatch.h"
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
  conv.backward(store, col, gy, gx, 1, gcol);

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
  conv.backward(store, col, gy, gx_gemm, p.batch, gcol);
  EXPECT_LE(max_abs_diff(grads_naive, store.grads()), 1e-4f);
  EXPECT_LE(max_abs_diff(gx_naive, gx_gemm), 1e-4f);

  // gx may be skipped (first layer): param grads must be unaffected.
  store.zero_grads();
  conv.backward(store, col, gy, /*gx=*/{}, p.batch, gcol);
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

TEST(ReluTest, BackwardSelectMatchesBranchOnNaNAndSignedZeros) {
  // relu_backward is a select with the branch's predicate (y <= 0): a NaN y
  // keeps its gradient, a -0 or +0 y zeroes it. Long enough that the
  // vector body and its tail both run.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> ys{nan, -nan, 0.0f, -0.0f, -1.0f, 1.0f, inf, -inf, tiny, -tiny, 3.5f};
  const std::vector<float> gs{2.0f, -0.0f, nan, -3.0f, 0.0f, inf, -1.5f, 7.0f, -nan, 1e-30f};
  std::vector<float> y, gy;
  for (std::size_t i = 0; i < 67; ++i) {
    y.push_back(ys[i % ys.size()]);
    gy.push_back(gs[(i * 7) % gs.size()]);
  }
  std::vector<float> want = gy;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] <= 0.0f) want[i] = 0.0f;
  }
  relu_backward(y, gy);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(gy[i]), std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << " y=" << y[i];
  }
}

// ---------------------------------------------------------------- optimizers
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

std::vector<KernelPath> runnable_paths() {
  std::vector<KernelPath> out;
  for (const KernelPath p : {KernelPath::kScalar, KernelPath::kAvx2}) {
    if (kernel_path_available(p)) out.push_back(p);
  }
  return out;
}

TEST(AdamParity, VectorBodyMatchesScalarLoop) {
  // Adam::step on every path against the scalar loop, bit for bit: 50 steps
  // with weight decay, for sizes covering n % 4 in {0, 1, 2, 3} (the vector
  // body plus each tail length), with zero, tiny and large gradients.
  for (const std::size_t n : {std::size_t{1}, std::size_t{6}, std::size_t{7}, std::size_t{64},
                              std::size_t{129}, std::size_t{27288}}) {
    Rng rng{0xADA0ull + n};
    std::vector<std::vector<float>> grads(50);
    for (auto& g : grads) {
      g = random_vec(n, rng);
      for (std::size_t i = 0; i < n; i += 5) g[i] *= 1e-30f;
      for (std::size_t i = 1; i < n; i += 7) g[i] = 0.0f;
      for (std::size_t i = 2; i < n; i += 11) g[i] *= 1e6f;
    }
    const std::vector<float> init = random_vec(n, rng);
    const auto run = [&](KernelPath path, std::vector<std::uint8_t>& state) {
      const ScopedKernelPath scope{path};
      Adam opt{1e-3, 0.9, 0.999, 1e-8, 0.01};
      std::vector<float> p = init;
      std::vector<std::vector<float>> trace;
      for (const auto& g : grads) {
        opt.step(p, g);
        trace.push_back(p);
      }
      ByteWriter w;
      opt.save_state(w);
      state = w.bytes();
      return trace;
    };
    std::vector<std::uint8_t> want_state;
    const auto want = run(KernelPath::kScalar, want_state);
    for (const KernelPath path : runnable_paths()) {
      std::vector<std::uint8_t> got_state;
      const auto got = run(path, got_state);
      for (std::size_t t = 0; t < want.size(); ++t) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[t][i]),
                    std::bit_cast<std::uint32_t>(want[t][i]))
              << kernel_path_name(path) << " n=" << n << " step " << t << " param " << i;
        }
      }
      EXPECT_EQ(got_state, want_state) << kernel_path_name(path) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------- policy

data::Sample make_sample(Rng& rng, data::Command cmd,
                         const data::BevSpec& spec = data::kDefaultBevSpec) {
  data::Sample s;
  s.bev = data::BevGrid{spec};
  for (int k = 0; k < spec.numel(); ++k) s.bev.set(static_cast<std::size_t>(k), rng.chance(0.2));
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

// ------------------------------------------------- batched scoring parity

/// Direct im2col reference: the receptive-field loops the gather plan
/// replaces, one sample [in_ch, in_h, in_w] into [col_rows, out_plane].
std::vector<float> reference_im2col(const Conv2d& cv, const float* x) {
  std::vector<float> col(static_cast<std::size_t>(cv.col_rows()) * cv.out_plane(), 0.0f);
  std::size_t row = 0;
  for (int ic = 0; ic < cv.in_ch; ++ic) {
    for (int kr = 0; kr < cv.kernel; ++kr) {
      for (int kc = 0; kc < cv.kernel; ++kc, ++row) {
        for (int r = 0; r < cv.out_h; ++r) {
          for (int c = 0; c < cv.out_w; ++c) {
            const int ri = r * cv.stride - cv.pad + kr;
            const int ci = c * cv.stride - cv.pad + kc;
            if (ri < 0 || ri >= cv.in_h || ci < 0 || ci >= cv.in_w) continue;
            col[row * cv.out_plane() + static_cast<std::size_t>(r) * cv.out_w + c] =
                x[(static_cast<std::size_t>(ic) * cv.in_h + ri) * cv.in_w + ci];
          }
        }
      }
    }
  }
  return col;
}

TEST(UnfoldPlanTest, MatchesReferenceLoops) {
  // The policy's conv1 and conv2 geometries on the default 4x16x16 BEV, conv1
  // on a 4x8x8 BEV, and a stride-1 one whose 7x6 rows are not byte-aligned.
  const int shapes[][7] = {{4, 8, 16, 16, 3, 2, 1},
                           {8, 16, 8, 8, 3, 2, 1},
                           {4, 8, 8, 8, 3, 2, 1},
                           {3, 4, 7, 6, 3, 1, 1}};
  for (const auto& g : shapes) {
    ParamStore store;
    Rng init{401};
    const Conv2d cv{store, g[0], g[1], g[2], g[3], g[4], g[5], g[6], init};
    Rng rng{409};
    const auto x = random_vec(cv.in_numel(), rng);
    const auto want = reference_im2col(cv, x.data());
    std::vector<float> got(want.size(), -1.0f);
    cv.unfold(x.data(), cv.in_plane(), got.data(), cv.out_plane());
    EXPECT_EQ(got, want) << "float unfold, in_ch " << g[0] << " stride " << g[5];

    // The bit-packed overload reads a set bit as 1.0f, bit for bit what the
    // direct loops make of the same raster as floats.
    data::BevGrid bev{data::BevSpec{g[0], g[2], g[3]}};
    std::vector<float> raster(cv.in_numel());
    for (std::size_t i = 0; i < raster.size(); ++i) {
      const bool on = rng.chance(0.3);
      bev.set(i, on);
      raster[i] = on ? 1.0f : 0.0f;
    }
    std::vector<float> from_bits(want.size(), -1.0f);
    cv.unfold(bev.bits.data(), from_bits.data(), cv.out_plane());
    const auto ref = reference_im2col(cv, raster.data());
    ASSERT_EQ(from_bits.size(), ref.size());
    EXPECT_EQ(std::memcmp(from_bits.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << "bit unfold, in_ch " << g[0] << " " << g[2] << "x" << g[3];
  }
}

std::vector<data::Sample> scoring_samples(std::size_t n, Rng& rng,
                                          const data::BevSpec& spec = data::kDefaultBevSpec) {
  std::vector<data::Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_sample(rng, static_cast<data::Command>(i % data::kNumCommands), spec));
  }
  return out;
}

template <class Model>
void expect_batched_equals_one_sample(const Model& model, std::span<const data::Sample> samples,
                                      ThreadPool& pool, const char* what) {
  std::vector<double> batched(samples.size());
  model.sample_losses(ScoringBatch{model, samples}, batched);
  std::vector<const data::Sample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  std::vector<double> pooled(samples.size());
  score_samples(model, ptrs, pooled, &pool);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double one = model.sample_loss(samples[i]);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[i]), std::bit_cast<std::uint64_t>(one))
        << what << " n=" << samples.size() << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(pooled[i]), std::bit_cast<std::uint64_t>(one))
        << what << " pooled n=" << samples.size() << " sample " << i;
  }
}

TEST(ScoringParityTest, BatchedLossesEqualOneSampleCalls) {
  // Packing a chunk into one GEMM per layer moves no bit: every sample's
  // loss equals its one-sample call on each kernel path, at every batch
  // size around the chunk edges, for every command, fp32 and int8. The 8x8
  // raster gives conv planes of 16 and 4 pixels, so one-sample GEMMs end in
  // the AVX2 kernel's scalar tail while chunk GEMMs run full tiles.
  ThreadPool pool{3};
  for (const data::BevSpec spec : {data::kDefaultBevSpec, data::BevSpec{4, 8, 8, 4.0}}) {
    PolicyConfig cfg;
    cfg.bev = spec;
    const DrivingPolicy model{cfg, 31};
    const Int8Policy q{model};
    Rng rng{37};
    const std::vector<data::Sample> all = scoring_samples(300, rng, spec);
    for (const KernelPath path : runnable_paths()) {
      const ScopedKernelPath scope{path};
      for (const std::size_t n : {std::size_t{1}, std::size_t{7}, kScoringChunk - 1,
                                  kScoringChunk, kScoringChunk + 1, std::size_t{300}}) {
        const std::span<const data::Sample> samples{all.data(), n};
        expect_batched_equals_one_sample(model, samples, pool, "fp32");
        expect_batched_equals_one_sample(q, samples, pool, "int8");
      }
    }
  }
}

TEST(ScoringParityTest, SharedBatchScoresEveryModelAsItsOwnBatch) {
  // One batch serves any model of the same config and flavour, and rejects
  // the other flavour.
  const DrivingPolicy a{{}, 41};
  const DrivingPolicy b{{}, 43};
  Rng rng{47};
  const std::vector<data::Sample> samples = scoring_samples(40, rng);
  const ScoringBatch shared{a, samples};
  std::vector<double> via_shared(samples.size());
  std::vector<double> via_own(samples.size());
  b.sample_losses(shared, via_shared);
  b.sample_losses(ScoringBatch{b, samples}, via_own);
  EXPECT_EQ(via_shared, via_own);
  EXPECT_EQ(b.weighted_loss(shared), b.weighted_loss(samples));
  EXPECT_THROW(Int8Policy{a}.sample_losses(shared, via_own), std::invalid_argument);
  EXPECT_THROW(a.sample_losses(ScoringBatch{Int8Policy{a}, samples}, via_own),
               std::invalid_argument);
}

/// DrivingPolicy rebuilt from the public layers (same shapes, same
/// allocation order, so the same parameter offsets), running the per-sample
/// forward the scoring chunks must reproduce: rasterize, then one GEMM per
/// sample and layer.
struct ReferencePolicy {
  PolicyConfig cfg;
  ParamStore store;
  Conv2d conv1, conv2;
  Linear fc;
  std::vector<Linear> hidden, out;
  // Activations of the last forward().
  std::vector<float> x, a1, a2, h, bh, y;

  explicit ReferencePolicy(const DrivingPolicy& policy) : cfg(policy.config()) {
    Rng init{1};
    conv1 = Conv2d{store, cfg.bev.channels, cfg.conv1_channels, cfg.bev.height, cfg.bev.width,
                   3, 2, 1, init};
    conv2 = Conv2d{store, cfg.conv1_channels, cfg.conv2_channels, conv1.out_h, conv1.out_w,
                   3, 2, 1, init};
    fc = Linear{store, static_cast<int>(conv2.out_numel()), cfg.fc_dim, init};
    for (int b = 0; b < data::kNumCommands; ++b) {
      hidden.emplace_back(store, cfg.fc_dim, cfg.branch_hidden, init);
      out.emplace_back(store, cfg.branch_hidden, 2 * data::kNumWaypoints, init);
    }
    EXPECT_EQ(store.size(), policy.param_count());
    std::copy(policy.params().begin(), policy.params().end(), store.params().begin());
  }

  void forward(std::span<const data::Sample* const> batch) {
    const int B = static_cast<int>(batch.size());
    const auto n = batch.size();
    const int out_dim = 2 * data::kNumWaypoints;
    x.assign(n * conv1.in_numel(), 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < conv1.in_numel(); ++k) {
        x[i * conv1.in_numel() + k] = batch[i]->bev.at(k) != 0 ? 1.0f : 0.0f;
      }
    }
    a1.assign(n * conv1.out_numel(), 0.0f);
    a2.assign(n * conv2.out_numel(), 0.0f);
    h.assign(n * cfg.fc_dim, 0.0f);
    bh.assign(n * cfg.branch_hidden, 0.0f);
    y.assign(n * out_dim, 0.0f);
    std::vector<float> scratch;
    conv1.forward(store, x, a1, B, scratch);
    relu_forward(a1);
    conv2.forward(store, a1, a2, B, scratch);
    relu_forward(a2);
    fc.forward(store, a2, h, B);
    relu_forward(h);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(batch[i]->command);
      const auto bh_i = std::span<float>{bh}.subspan(i * cfg.branch_hidden, cfg.branch_hidden);
      hidden[c].forward(store, std::span<const float>{h}.subspan(i * cfg.fc_dim, cfg.fc_dim),
                        bh_i, 1);
      relu_forward(bh_i);
      out[c].forward(store, bh_i, std::span<float>{y}.subspan(i * out_dim, out_dim), 1);
    }
  }
};

TEST(ScoringParityTest, MatchesPerSampleLayerForward) {
  // The chunked path against the per-sample pipeline it replaced, sample by
  // sample and bit for bit, on each kernel path.
  for (const KernelPath path : runnable_paths()) {
    const ScopedKernelPath scope{path};
    const DrivingPolicy policy{{}, 61};
    ReferencePolicy ref{policy};
    Rng rng{67};
    const std::vector<data::Sample> samples = scoring_samples(2 * kScoringChunk + 3, rng);
    std::vector<double> losses(samples.size());
    policy.sample_losses(ScoringBatch{policy, samples}, losses);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const data::Sample* one[1] = {&samples[i]};
      ref.forward(one);
      double want = 0.0;
      for (std::size_t k = 0; k < ref.y.size(); ++k) {
        want += std::abs(static_cast<double>(ref.y[k]) -
                         static_cast<double>(samples[i].waypoints[k]));
      }
      want /= static_cast<double>(ref.y.size());
      ASSERT_EQ(std::bit_cast<std::uint64_t>(losses[i]), std::bit_cast<std::uint64_t>(want))
          << kernel_path_name(path) << " sample " << i;
    }
  }
}

/// The training gradient rebuilt from the public layers: the reference
/// forward, then the per-sample head loop (one-sample Linear calls), then
/// the trunk's backward with every conv's columns unfolded again by the
/// direct loops. Leaves the grads in ref.store and returns the batch loss.
double reference_gradient(ReferencePolicy& ref, std::span<const data::Sample* const> batch) {
  ref.forward(batch);
  const PolicyConfig& cfg = ref.cfg;
  ParamStore& store = ref.store;
  const int B = static_cast<int>(batch.size());
  const auto n = batch.size();
  const int out_dim = 2 * data::kNumWaypoints;
  double loss = 0.0;
  std::vector<float> g_y(ref.y.size());
  const float gscale = 1.0f / (static_cast<float>(B) * static_cast<float>(out_dim));
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < out_dim; ++k) {
      const float diff =
          ref.y[i * out_dim + k] - batch[i]->waypoints[static_cast<std::size_t>(k)];
      loss += std::abs(static_cast<double>(diff));
      g_y[i * out_dim + k] = (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f)) * gscale;
    }
  }
  loss /= static_cast<double>(B) * out_dim;

  store.zero_grads();
  std::vector<float> g_bh(ref.bh.size(), 0.0f), g_h(ref.h.size(), 0.0f);
  std::vector<float> g_a2(ref.a2.size(), 0.0f), g_a1(ref.a1.size(), 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(batch[i]->command);
    const auto bh_i = std::span<const float>{ref.bh}.subspan(i * cfg.branch_hidden,
                                                             cfg.branch_hidden);
    const auto g_bh_i = std::span<float>{g_bh}.subspan(i * cfg.branch_hidden,
                                                       cfg.branch_hidden);
    ref.out[c].backward(store, bh_i,
                        std::span<const float>{g_y}.subspan(i * out_dim, out_dim), g_bh_i, 1);
    relu_backward(bh_i, g_bh_i);
    ref.hidden[c].backward(
        store, std::span<const float>{ref.h}.subspan(i * cfg.fc_dim, cfg.fc_dim), g_bh_i,
        std::span<float>{g_h}.subspan(i * cfg.fc_dim, cfg.fc_dim), 1);
  }
  relu_backward(ref.h, g_h);
  ref.fc.backward(store, ref.a2, g_h, g_a2, B);
  relu_backward(ref.a2, g_a2);
  // Fresh columns from the direct loops, not from any forward.
  const auto fresh_cols = [n](const Conv2d& cv, const std::vector<float>& in) {
    std::vector<float> cols;
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = reference_im2col(cv, in.data() + i * cv.in_numel());
      cols.insert(cols.end(), c.begin(), c.end());
    }
    return cols;
  };
  std::vector<float> gcol;
  ref.conv2.backward(store, fresh_cols(ref.conv2, ref.a1), g_a2, g_a1, B, gcol);
  relu_backward(ref.a1, g_a1);
  ref.conv1.backward(store, fresh_cols(ref.conv1, ref.x), g_a1, /*gx=*/{}, B, gcol);
  return loss;
}

/// compute_batch_gradient against reference_gradient, loss and every
/// gradient element bit for bit.
void expect_gradient_matches_reference(DrivingPolicy& policy,
                                       std::span<const data::Sample* const> batch,
                                       const std::string& what) {
  const double loss = policy.compute_batch_gradient(batch);
  ReferencePolicy ref{policy};
  const double ref_loss = reference_gradient(ref, batch);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loss), std::bit_cast<std::uint64_t>(ref_loss)) << what;
  const auto got = policy.grads();
  const auto want = ref.store.grads();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " grad " << i;
  }
}

TEST(ColumnReuseTest, BatchGradientMatchesFreshlyUnfoldedColumns) {
  // The training backward reads the columns its forward left behind. The
  // reference backward, with every conv's columns unfolded again by the
  // direct loops, must give bit-identical grads.
  for (const KernelPath path : runnable_paths()) {
    const ScopedKernelPath scope{path};
    DrivingPolicy policy{{}, 53};
    Rng rng{59};
    const std::vector<data::Sample> samples = scoring_samples(9, rng);
    std::vector<const data::Sample*> batch;
    for (const auto& s : samples) batch.push_back(&s);
    expect_gradient_matches_reference(policy, batch, std::string{kernel_path_name(path)});
  }
}

TEST(TrainingParity, GroupedHeadsMatchPerSampleLoop) {
  // The branch heads run once per command group; the per-sample loop of
  // one-sample layer calls they replace must give the same loss and grads
  // bit for bit, on each path, at batch 1, 5 and 32. The commands come in
  // shuffled order and one command has no sample at all.
  for (const KernelPath path : runnable_paths()) {
    const ScopedKernelPath scope{path};
    for (const std::size_t b : {std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      DrivingPolicy policy{{}, 71 + b};
      Rng rng{73 + b};
      std::vector<data::Sample> samples;
      for (std::size_t i = 0; i < b; ++i) {
        // Commands 0, 1 and 3 only, in a data-dependent order.
        const auto pick = rng.uniform_index(3);
        const auto cmd = static_cast<data::Command>(pick == 2 ? 3 : pick);
        samples.push_back(make_sample(rng, cmd, data::kDefaultBevSpec));
      }
      std::vector<const data::Sample*> batch;
      for (const auto& s : samples) batch.push_back(&s);
      expect_gradient_matches_reference(
          policy, batch, std::string{kernel_path_name(path)} + " batch " + std::to_string(b));
    }
  }
}

}  // namespace
}  // namespace lbchat::nn
