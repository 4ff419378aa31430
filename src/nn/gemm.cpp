#include "nn/gemm.h"

#include <algorithm>
#include <stdexcept>

#if defined(__GNUC__) || defined(__clang__)
#define LBCHAT_RESTRICT __restrict__
#else
#define LBCHAT_RESTRICT
#endif

namespace lbchat::nn {

namespace detail::scalar {

namespace {

/// Row-register-blocked SAXPY update shared by sgemm and sgemm_atb: for one k,
/// fold `ar` rows of A-coefficients times the contiguous B row `bk` into the
/// corresponding C rows. The j loop is the contiguous, auto-vectorizable one.
inline void axpy_rows4(int n, const float a0, const float a1, const float a2, const float a3,
                       const float* LBCHAT_RESTRICT bk, float* LBCHAT_RESTRICT c0,
                       float* LBCHAT_RESTRICT c1, float* LBCHAT_RESTRICT c2,
                       float* LBCHAT_RESTRICT c3) {
  for (int j = 0; j < n; ++j) {
    const float b = bk[j];
    c0[j] += a0 * b;
    c1[j] += a1 * b;
    c2[j] += a2 * b;
    c3[j] += a3 * b;
  }
}

inline void axpy_row1(int n, const float a0, const float* LBCHAT_RESTRICT bk,
                      float* LBCHAT_RESTRICT c0) {
  for (int j = 0; j < n; ++j) c0[j] += a0 * bk[j];
}

}  // namespace

void sgemm(int m, int n, int k, const float* LBCHAT_RESTRICT a, const float* LBCHAT_RESTRICT b,
           float* LBCHAT_RESTRICT c) {
  // C row-panel of 4 stays in registers/L1 while a kBlock-tall slab of B
  // streams through. A is read once per (row, k).
  for (int k0 = 0; k0 < k; k0 += kGemmKBlock) {
    const int k1 = std::min(k, k0 + kGemmKBlock);
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* ai0 = a + static_cast<long>(i) * k;
      const float* ai1 = ai0 + k;
      const float* ai2 = ai1 + k;
      const float* ai3 = ai2 + k;
      float* ci0 = c + static_cast<long>(i) * n;
      float* ci1 = ci0 + n;
      float* ci2 = ci1 + n;
      float* ci3 = ci2 + n;
      for (int kk = k0; kk < k1; ++kk) {
        axpy_rows4(n, ai0[kk], ai1[kk], ai2[kk], ai3[kk], b + static_cast<long>(kk) * n, ci0,
                   ci1, ci2, ci3);
      }
    }
    for (; i < m; ++i) {
      const float* ai = a + static_cast<long>(i) * k;
      float* ci = c + static_cast<long>(i) * n;
      for (int kk = k0; kk < k1; ++kk) {
        axpy_row1(n, ai[kk], b + static_cast<long>(kk) * n, ci);
      }
    }
  }
}

void sgemm_atb(int m, int n, int k, const float* LBCHAT_RESTRICT a,
               const float* LBCHAT_RESTRICT b, float* LBCHAT_RESTRICT c) {
  // A is [K,M]: element (i, kk) of the logical Aᵀ lives at a[kk*m + i], so a
  // row-block of four C rows reads four adjacent floats of each A row — no
  // strided column walk.
  for (int k0 = 0; k0 < k; k0 += kGemmKBlock) {
    const int k1 = std::min(k, k0 + kGemmKBlock);
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      float* ci0 = c + static_cast<long>(i) * n;
      float* ci1 = ci0 + n;
      float* ci2 = ci1 + n;
      float* ci3 = ci2 + n;
      for (int kk = k0; kk < k1; ++kk) {
        const float* ak = a + static_cast<long>(kk) * m + i;
        axpy_rows4(n, ak[0], ak[1], ak[2], ak[3], b + static_cast<long>(kk) * n, ci0, ci1, ci2,
                   ci3);
      }
    }
    for (; i < m; ++i) {
      float* ci = c + static_cast<long>(i) * n;
      for (int kk = k0; kk < k1; ++kk) {
        axpy_row1(n, a[static_cast<long>(kk) * m + i], b + static_cast<long>(kk) * n, ci);
      }
    }
  }
}

namespace {

/// Dot product of two contiguous rows via kLanes independent partial sums
/// (lane l accumulates the k ≡ l (mod kLanes) terms). The fixed-trip inner
/// loop maps straight onto SIMD lanes, so the compiler vectorizes the
/// reduction without being licensed to reassociate on its own — the
/// summation order is pinned by the source and thus bit-reproducible.
inline float dot_lanes(int k, const float* LBCHAT_RESTRICT x, const float* LBCHAT_RESTRICT y) {
  constexpr int kLanes = 8;
  float acc[kLanes] = {};
  int kk = 0;
  for (; kk + kLanes <= k; kk += kLanes) {
    for (int l = 0; l < kLanes; ++l) acc[l] += x[kk + l] * y[kk + l];
  }
  float tail = 0.0f;
  for (; kk < k; ++kk) tail += x[kk] * y[kk];
  float s = tail;
  for (int l = 0; l < kLanes; ++l) s += acc[l];
  return s;
}

}  // namespace

void sgemm_abt(int m, int n, int k, const float* LBCHAT_RESTRICT a,
               const float* LBCHAT_RESTRICT b, float* LBCHAT_RESTRICT c) {
  // Both operands are walked along contiguous K rows; four B rows share one
  // pass over the A row, so the inner loop is four independent vectorized
  // dot-product reductions.
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<long>(i) * k;
    float* ci = c + static_cast<long>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* bj = b + static_cast<long>(j) * k;
      ci[j] += dot_lanes(k, ai, bj);
      ci[j + 1] += dot_lanes(k, ai, bj + k);
      ci[j + 2] += dot_lanes(k, ai, bj + 2 * static_cast<long>(k));
      ci[j + 3] += dot_lanes(k, ai, bj + 3 * static_cast<long>(k));
    }
    for (; j < n; ++j) {
      ci[j] += dot_lanes(k, ai, b + static_cast<long>(j) * k);
    }
  }
}

void igemm_abt(int m, int n, int k, const std::int8_t* LBCHAT_RESTRICT a,
               const std::int8_t* LBCHAT_RESTRICT b, std::int32_t* LBCHAT_RESTRICT c) {
  // Integer accumulation is associative, so the plain dot loop both
  // auto-vectorizes and stays bit-identical to any other evaluation order.
  for (int i = 0; i < m; ++i) {
    const std::int8_t* ai = a + static_cast<long>(i) * k;
    std::int32_t* ci = c + static_cast<long>(i) * n;
    for (int j = 0; j < n; ++j) {
      const std::int8_t* bj = b + static_cast<long>(j) * k;
      std::int32_t s = 0;
      for (int kk = 0; kk < k; ++kk) {
        s += static_cast<std::int32_t>(ai[kk]) * static_cast<std::int32_t>(bj[kk]);
      }
      ci[j] += s;
    }
  }
}

}  // namespace detail::scalar

// ---------------------------------------------------------------------------
// Runtime dispatch (nn/kernel_dispatch.h). One relaxed atomic load per GEMM
// call — noise next to even the smallest branch-head matmul.
// ---------------------------------------------------------------------------

void sgemm_on(KernelPath path, int m, int n, int k, const float* a, const float* b, float* c) {
  switch (path) {
    case KernelPath::kScalar:
      detail::scalar::sgemm(m, n, k, a, b, c);
      return;
#if defined(__x86_64__) || defined(__i386__)
    case KernelPath::kAvx2:
      detail::avx2::sgemm(m, n, k, a, b, c);
      return;
#endif
    default:
      throw std::invalid_argument{"sgemm_on: kernel path not compiled into this build"};
  }
}

void sgemm_atb_on(KernelPath path, int m, int n, int k, const float* a, const float* b,
                  float* c) {
  switch (path) {
    case KernelPath::kScalar:
      detail::scalar::sgemm_atb(m, n, k, a, b, c);
      return;
#if defined(__x86_64__) || defined(__i386__)
    case KernelPath::kAvx2:
      detail::avx2::sgemm_atb(m, n, k, a, b, c);
      return;
#endif
    default:
      throw std::invalid_argument{"sgemm_atb_on: kernel path not compiled into this build"};
  }
}

void sgemm_abt_on(KernelPath path, int m, int n, int k, const float* a, const float* b,
                  float* c) {
  switch (path) {
    case KernelPath::kScalar:
      detail::scalar::sgemm_abt(m, n, k, a, b, c);
      return;
#if defined(__x86_64__) || defined(__i386__)
    case KernelPath::kAvx2:
      detail::avx2::sgemm_abt(m, n, k, a, b, c);
      return;
#endif
    default:
      throw std::invalid_argument{"sgemm_abt_on: kernel path not compiled into this build"};
  }
}

void igemm_abt_u8s8_on(KernelPath path, int m, int n, int k, const std::int8_t* a,
                       const std::int8_t* b, std::int32_t* c) {
  switch (path) {
    case KernelPath::kScalar:
      detail::scalar::igemm_abt(m, n, k, a, b, c);
      return;
#if defined(__x86_64__) || defined(__i386__)
    case KernelPath::kAvx2:
      detail::avx2::igemm_abt_u8s8(m, n, k, a, b, c);
      return;
#endif
    default:
      throw std::invalid_argument{
          "igemm_abt_u8s8_on: kernel path not compiled into this build"};
  }
}

void sgemm(int m, int n, int k, const float* a, const float* b, float* c) {
  sgemm_on(active_kernel_path(), m, n, k, a, b, c);
}

void sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c) {
  sgemm_atb_on(active_kernel_path(), m, n, k, a, b, c);
}

void sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c) {
  sgemm_abt_on(active_kernel_path(), m, n, k, a, b, c);
}

void igemm_abt_u8s8(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c) {
  igemm_abt_u8s8_on(active_kernel_path(), m, n, k, a, b, c);
}

// ---------------------------------------------------------------------------
// Parity oracles.
// ---------------------------------------------------------------------------

void naive_sgemm(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        s += a[static_cast<long>(i) * k + kk] * b[static_cast<long>(kk) * n + j];
      }
      c[static_cast<long>(i) * n + j] += s;
    }
  }
}

void naive_sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        s += a[static_cast<long>(kk) * m + i] * b[static_cast<long>(kk) * n + j];
      }
      c[static_cast<long>(i) * n + j] += s;
    }
  }
}

void naive_sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        s += a[static_cast<long>(i) * k + kk] * b[static_cast<long>(j) * k + kk];
      }
      c[static_cast<long>(i) * n + j] += s;
    }
  }
}

void naive_igemm_abt(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
                     std::int32_t* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::int32_t s = 0;
      for (int kk = 0; kk < k; ++kk) {
        s += static_cast<std::int32_t>(a[static_cast<long>(i) * k + kk]) *
             static_cast<std::int32_t>(b[static_cast<long>(j) * k + kk]);
      }
      c[static_cast<long>(i) * n + j] += s;
    }
  }
}

}  // namespace lbchat::nn
