// Unit tests for top-k sparsification (paper §III-C) and its wire format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

#include "common/bytes.h"
#include "nn/compress.h"
#include "common/rng.h"
#include "nn/model_io.h"

namespace lbchat::nn {
namespace {

TEST(TopKTest, KeepsLargestMagnitudes) {
  const std::vector<float> params{0.1f, -5.0f, 0.3f, 2.0f, -0.2f, 1.0f, 0.0f, -0.05f};
  const SparseModel m = top_k_sparsify(params, 3);
  ASSERT_EQ(m.indices.size(), 3u);
  EXPECT_FALSE(m.dense);
  // Largest magnitudes are -5, 2, 1 at indices 1, 3, 5 (sorted ascending).
  EXPECT_EQ(m.indices, (std::vector<std::uint32_t>{1, 3, 5}));
  EXPECT_FLOAT_EQ(m.values[0], -5.0f);
  EXPECT_FLOAT_EQ(m.values[1], 2.0f);
  EXPECT_FLOAT_EQ(m.values[2], 1.0f);
}

TEST(TopKTest, DensifyFillsZeros) {
  const std::vector<float> params{1.0f, -2.0f, 3.0f, -4.0f};
  const SparseModel m = top_k_sparsify(params, 1);
  const auto dense = m.densify();
  ASSERT_EQ(dense.size(), 4u);
  EXPECT_FLOAT_EQ(dense[3], -4.0f);
  EXPECT_FLOAT_EQ(dense[0], 0.0f);
  EXPECT_FLOAT_EQ(dense[1], 0.0f);
  EXPECT_FLOAT_EQ(dense[2], 0.0f);
}

TEST(TopKTest, ZeroKTransmitsNothing) {
  const std::vector<float> params{1.0f, 2.0f};
  const SparseModel m = top_k_sparsify(params, 0);
  EXPECT_TRUE(m.indices.empty());
  EXPECT_FALSE(m.dense);
  const auto dense = m.densify();
  EXPECT_FLOAT_EQ(dense[0], 0.0f);
  EXPECT_DOUBLE_EQ(m.psi(), 0.0);
}

TEST(TopKTest, LargeKFallsBackToDense) {
  std::vector<float> params(100);
  for (std::size_t i = 0; i < params.size(); ++i) params[i] = static_cast<float>(i);
  // k > dim/2 means index-value pairs are no smaller than dense encoding.
  const SparseModel m = top_k_sparsify(params, 60);
  EXPECT_TRUE(m.dense);
  EXPECT_EQ(m.densify(), params);
  EXPECT_DOUBLE_EQ(m.psi(), 1.0);
}

TEST(TopKTest, PsiToKRelation) {
  EXPECT_EQ(top_k_for_psi(0.0, 1000), 0u);
  EXPECT_EQ(top_k_for_psi(1.0, 1000), 1000u);
  // psi = 2k/dim so k = psi*dim/2.
  EXPECT_EQ(top_k_for_psi(0.5, 1000), 250u);
  EXPECT_EQ(top_k_for_psi(0.1, 1000), 50u);
}

TEST(TopKTest, AchievedPsiMatchesRequested) {
  std::vector<float> params(27288);
  Rng rng{3};
  for (float& v : params) v = static_cast<float>(rng.normal());
  for (const double psi : {0.1, 0.25, 0.5, 0.9}) {
    const SparseModel m = compress_for_psi(params, psi);
    EXPECT_NEAR(m.psi(), psi, 0.01) << "psi=" << psi;
  }
}

TEST(TopKTest, LogicalBytesMonotonicInPsi) {
  std::vector<float> params(10000);
  Rng rng{5};
  for (float& v : params) v = static_cast<float>(rng.normal());
  std::size_t prev = 0;
  for (const double psi : {0.05, 0.2, 0.4, 0.8, 1.0}) {
    const auto bytes = compress_for_psi(params, psi).logical_bytes();
    EXPECT_GE(bytes, prev);
    prev = bytes;
  }
  // Dense encoding is 4 bytes/coordinate plus header.
  EXPECT_EQ(compress_for_psi(params, 1.0).logical_bytes(), 8u + 4u * 10000u);
}

TEST(TopKTest, ReconstructionErrorDecreasesWithPsi) {
  std::vector<float> params(5000);
  Rng rng{7};
  for (float& v : params) v = static_cast<float>(rng.normal());
  double prev_err = 1e18;
  for (const double psi : {0.1, 0.3, 0.6, 1.0}) {
    const auto dense = compress_for_psi(params, psi).densify();
    double err = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      err += std::abs(static_cast<double>(params[i]) - dense[i]);
    }
    EXPECT_LT(err, prev_err) << "psi=" << psi;
    prev_err = err;
  }
  EXPECT_NEAR(prev_err, 0.0, 1e-9);  // psi = 1 is lossless
}

TEST(TopKTest, DensifyRejectsBadIndex) {
  SparseModel m;
  m.dim = 4;
  m.indices = {9};
  m.values = {1.0f};
  EXPECT_THROW(m.densify(), std::out_of_range);
}

TEST(ModelIoTest, SparseModelRoundtrip) {
  std::vector<float> params(257);
  Rng rng{9};
  for (float& v : params) v = static_cast<float>(rng.normal());
  const SparseModel m = compress_for_psi(params, 0.3);
  ByteWriter w;
  write_sparse_model(w, m);
  ByteReader r{w.bytes()};
  const SparseModel back = read_sparse_model(r);
  EXPECT_EQ(back.dim, m.dim);
  EXPECT_EQ(back.dense, m.dense);
  EXPECT_EQ(back.indices, m.indices);
  EXPECT_EQ(back.values, m.values);
}

// ------------------------------------------- threshold selection vs the oracle

/// Reference oracle: the index-partition selection top_k_sparsify made before
/// it selected by threshold (nth_element over indices, then sort).
SparseModel naive_top_k_sparsify(std::span<const float> params, std::size_t k) {
  SparseModel m;
  m.dim = static_cast<std::uint32_t>(params.size());
  if (k >= params.size() || k > params.size() / 2) {
    m.dense = true;
    m.values.assign(params.begin(), params.end());
    return m;
  }
  if (k == 0) return m;
  std::vector<std::uint32_t> order(params.size());
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return std::abs(params[a]) > std::abs(params[b]);
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  m.indices = std::move(order);
  for (const std::uint32_t i : m.indices) m.values.push_back(params[i]);
  return m;
}

std::vector<std::uint8_t> wire_bytes(const SparseModel& m) {
  ByteWriter w;
  write_sparse_model(w, m);
  return w.bytes();
}

std::vector<std::uint8_t> float_bytes(std::span<const float> v) {
  std::vector<std::uint8_t> out(v.size() * sizeof(float));
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

/// Parameter vectors whose magnitudes tie in every way a boundary can: plain
/// normals, a handful of repeated magnitudes, +w/-w pairs, runs of (signed)
/// zeros, and all-equal magnitudes.
std::vector<float> tie_family(int kind, std::size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    switch (kind) {
      case 0:
        v[i] = static_cast<float>(rng.normal());
        break;
      case 1: {
        constexpr float kLevels[] = {0.125f, 0.25f, 0.5f, 1.0f, 2.0f};
        v[i] = kLevels[rng.uniform_index(5)] * (rng.chance(0.5) ? 1.0f : -1.0f);
        break;
      }
      case 2:
        v[i] = i % 2 == 0 ? static_cast<float>(rng.normal()) : -v[i - 1];
        break;
      case 3:
        v[i] = (i / 7) % 2 == 0 ? (rng.chance(0.5) ? 0.0f : -0.0f)
                                : static_cast<float>(rng.normal());
        break;
      default:
        v[i] = rng.chance(0.5) ? 0.75f : -0.75f;
        break;
    }
  }
  // Shuffle so the pairs and runs do not sit in index order.
  for (std::size_t i = dim; i > 1; --i) std::swap(v[i - 1], v[rng.uniform_index(i)]);
  return v;
}

TEST(TopKParityTest, WireBytesMatchIndexPartitionOracle) {
  Rng rng{21};
  for (const std::size_t dim : {1u, 2u, 3u, 64u, 1001u, 27288u}) {
    for (int kind = 0; kind < 5; ++kind) {
      const std::vector<float> params = tie_family(kind, dim, rng);
      std::vector<std::size_t> ks = {0, 1, dim / 2, dim / 2 + 1, dim};
      for (int extra = 0; extra < 3; ++extra) ks.push_back(rng.uniform_index(dim / 2 + 1));
      for (const std::size_t k : ks) {
        EXPECT_EQ(wire_bytes(top_k_sparsify(params, k)),
                  wire_bytes(naive_top_k_sparsify(params, k)))
            << "dim " << dim << " kind " << kind << " k " << k;
      }
    }
  }
}

TEST(TopKParityTest, DenseWriteMatchesDensifiedOracle) {
  Rng rng{22};
  for (const std::size_t dim : {1u, 3u, 64u, 1001u, 27288u}) {
    for (int kind = 0; kind < 5; ++kind) {
      const std::vector<float> params = tie_family(kind, dim, rng);
      MagnitudeRanking ranking{params};
      std::vector<float> out(dim, 9.0f);
      for (const std::size_t k : {dim, dim / 2 + 1, dim / 2, dim / 3, std::size_t{1},
                                  std::size_t{0}}) {
        write_top_k_dense(params, k, ranking, out);
        EXPECT_EQ(float_bytes(out), float_bytes(naive_top_k_sparsify(params, k).densify()))
            << "dim " << dim << " kind " << kind << " k " << k;
      }
    }
  }
}

TEST(TopKParityTest, TieAtTheBoundaryFallsBackToTheOracle) {
  // The 3rd and 4th largest magnitudes tie (|-2| = |2|), so the top-3 set is
  // not unique and the threshold would keep four coordinates.
  const std::vector<float> params{0.5f, 2.0f, -3.0f, 0.0f, -2.0f, 4.0f, 0.1f, 0.2f};
  const SparseModel m = top_k_sparsify(params, 3);
  ASSERT_EQ(m.indices.size(), 3u);
  EXPECT_EQ(wire_bytes(m), wire_bytes(naive_top_k_sparsify(params, 3)));
  MagnitudeRanking ranking{params};
  std::vector<float> out(params.size());
  write_top_k_dense(params, 3, ranking, out);
  EXPECT_EQ(float_bytes(out), float_bytes(m.densify()));
}

TEST(MagnitudeRankingTest, KthLargestMatchesSortedMagnitudes) {
  Rng rng{23};
  for (int kind = 0; kind < 5; ++kind) {
    std::vector<float> params = tie_family(kind, 2000, rng);
    params[3] = std::numeric_limits<float>::infinity();
    params[5] = std::numeric_limits<float>::denorm_min();
    params[8] = -std::numeric_limits<float>::max();
    std::vector<float> sorted(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) sorted[i] = std::abs(params[i]);
    std::sort(sorted.begin(), sorted.end(), std::greater<float>{});
    MagnitudeRanking ranking{params};
    // Any order of k: each query is independent of the previous ones.
    for (int q = 0; q < 50; ++q) {
      const std::size_t k = 1 + rng.uniform_index(params.size());
      const std::optional<float> t = ranking.kth_largest(k);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(*t, sorted[k - 1]) << "kind " << kind << " k " << k;
    }
    EXPECT_THROW((void)ranking.kth_largest(0), std::invalid_argument);
    EXPECT_THROW((void)ranking.kth_largest(params.size() + 1), std::invalid_argument);
  }
}

TEST(MagnitudeRankingTest, NanHasNoRankAndTopKStillSelects) {
  std::vector<float> params{1.0f, -3.0f, std::numeric_limits<float>::quiet_NaN(), 2.0f, 0.5f};
  MagnitudeRanking ranking{params};
  EXPECT_FALSE(ranking.kth_largest(1).has_value());
  // The index partition decides instead, exactly as before thresholds.
  const SparseModel m = top_k_sparsify(params, 2);
  EXPECT_EQ(wire_bytes(m), wire_bytes(naive_top_k_sparsify(params, 2)));
}

class PsiSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(PsiSweepTest, SparseEncodingNeverExceedsDense) {
  std::vector<float> params(4096);
  Rng rng{11};
  for (float& v : params) v = static_cast<float>(rng.normal());
  const auto m = compress_for_psi(params, GetParam());
  EXPECT_LE(m.logical_bytes(), 8u + 4u * params.size());
}

INSTANTIATE_TEST_SUITE_P(Ratios, PsiSweepTest,
                         ::testing::Values(0.0, 0.05, 0.125, 0.25, 0.5, 0.75, 0.99, 1.0));

}  // namespace
}  // namespace lbchat::nn
