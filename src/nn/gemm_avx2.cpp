// Hand-written AVX2+FMA microkernels behind the nn/gemm.h dispatch
// (DESIGN.md §15). This translation unit is compiled with -mavx2 -mfma on
// x86-64 builds only; nothing here runs unless kernel_path_available(kAvx2)
// reported true at runtime, so the rest of the binary stays baseline x86-64.
//
// Shapes in this codebase are small-to-medium (conv im2col panels, 27k-param
// policy layers), so the kernels stay simple: 4x16 FMA register tiles for the
// B-row-major variants; for the Bᵀ variant, 4-way independent dot
// accumulators, run 8x8 outputs at a time from a packed 8-row Aᵀ panel so no
// output pays its own horizontal sum; scalar tails for ragged edges. Each
// kernel fixes its own summation order, so results are reproducible run-to-run
// and machine-to-machine for this path — they differ from the scalar path only
// by float reassociation (the §15 tolerance contract).
#include "nn/gemm.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>
#include <vector>

namespace lbchat::nn::detail::avx2 {

namespace {

inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

inline std::int32_t hsum8_i32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

/// Fold four 8-lane int32 accumulators into one [Σv0, Σv1, Σv2, Σv3] vector.
/// Amortizes the horizontal-sum cost across four dot products — the dominant
/// overhead of the int8 kernel at conv-sized k (36/72 in the default policy).
inline __m128i hsum4x8_i32(__m256i v0, __m256i v1, __m256i v2, __m256i v3) {
  const __m128i s0 =
      _mm_add_epi32(_mm256_castsi256_si128(v0), _mm256_extracti128_si256(v0, 1));
  const __m128i s1 =
      _mm_add_epi32(_mm256_castsi256_si128(v1), _mm256_extracti128_si256(v1, 1));
  const __m128i s2 =
      _mm_add_epi32(_mm256_castsi256_si128(v2), _mm256_extracti128_si256(v2, 1));
  const __m128i s3 =
      _mm_add_epi32(_mm256_castsi256_si128(v3), _mm256_extracti128_si256(v3, 1));
  return _mm_hadd_epi32(_mm_hadd_epi32(s0, s1), _mm_hadd_epi32(s2, s3));
}

/// One K-slab update of four C rows against B[K,N]: 4x16 FMA tile, then a
/// 4x8 tile, then a scalar tail. `a_at(r, kk)` abstracts the A layout so
/// sgemm (row-major A) and sgemm_atb (A stored [K,M]) share the body. The
/// tail fuses its multiply-adds too, so every column of C is the same FMA
/// chain whichever part of the body computes it: a column's value does not
/// depend on N, which is what lets the scoring path pack several samples'
/// pixels into one call (DESIGN.md §7).
template <class AAt>
inline void fma_rows4(int n, int k0, int k1, AAt a_at, const float* b, float* c0, float* c1,
                      float* c2, float* c3) {
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc00 = _mm256_loadu_ps(c0 + j);
    __m256 acc01 = _mm256_loadu_ps(c0 + j + 8);
    __m256 acc10 = _mm256_loadu_ps(c1 + j);
    __m256 acc11 = _mm256_loadu_ps(c1 + j + 8);
    __m256 acc20 = _mm256_loadu_ps(c2 + j);
    __m256 acc21 = _mm256_loadu_ps(c2 + j + 8);
    __m256 acc30 = _mm256_loadu_ps(c3 + j);
    __m256 acc31 = _mm256_loadu_ps(c3 + j + 8);
    for (int kk = k0; kk < k1; ++kk) {
      const float* bk = b + static_cast<long>(kk) * n + j;
      const __m256 b0 = _mm256_loadu_ps(bk);
      const __m256 b1 = _mm256_loadu_ps(bk + 8);
      const __m256 a0 = _mm256_set1_ps(a_at(0, kk));
      acc00 = _mm256_fmadd_ps(a0, b0, acc00);
      acc01 = _mm256_fmadd_ps(a0, b1, acc01);
      const __m256 a1 = _mm256_set1_ps(a_at(1, kk));
      acc10 = _mm256_fmadd_ps(a1, b0, acc10);
      acc11 = _mm256_fmadd_ps(a1, b1, acc11);
      const __m256 a2 = _mm256_set1_ps(a_at(2, kk));
      acc20 = _mm256_fmadd_ps(a2, b0, acc20);
      acc21 = _mm256_fmadd_ps(a2, b1, acc21);
      const __m256 a3 = _mm256_set1_ps(a_at(3, kk));
      acc30 = _mm256_fmadd_ps(a3, b0, acc30);
      acc31 = _mm256_fmadd_ps(a3, b1, acc31);
    }
    _mm256_storeu_ps(c0 + j, acc00);
    _mm256_storeu_ps(c0 + j + 8, acc01);
    _mm256_storeu_ps(c1 + j, acc10);
    _mm256_storeu_ps(c1 + j + 8, acc11);
    _mm256_storeu_ps(c2 + j, acc20);
    _mm256_storeu_ps(c2 + j + 8, acc21);
    _mm256_storeu_ps(c3 + j, acc30);
    _mm256_storeu_ps(c3 + j + 8, acc31);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc0 = _mm256_loadu_ps(c0 + j);
    __m256 acc1 = _mm256_loadu_ps(c1 + j);
    __m256 acc2 = _mm256_loadu_ps(c2 + j);
    __m256 acc3 = _mm256_loadu_ps(c3 + j);
    for (int kk = k0; kk < k1; ++kk) {
      const __m256 bk = _mm256_loadu_ps(b + static_cast<long>(kk) * n + j);
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a_at(0, kk)), bk, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a_at(1, kk)), bk, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a_at(2, kk)), bk, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a_at(3, kk)), bk, acc3);
    }
    _mm256_storeu_ps(c0 + j, acc0);
    _mm256_storeu_ps(c1 + j, acc1);
    _mm256_storeu_ps(c2 + j, acc2);
    _mm256_storeu_ps(c3 + j, acc3);
  }
  for (; j < n; ++j) {
    float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
    for (int kk = k0; kk < k1; ++kk) {
      const float bv = b[static_cast<long>(kk) * n + j];
      s0 = std::fma(a_at(0, kk), bv, s0);
      s1 = std::fma(a_at(1, kk), bv, s1);
      s2 = std::fma(a_at(2, kk), bv, s2);
      s3 = std::fma(a_at(3, kk), bv, s3);
    }
    c0[j] = s0;
    c1[j] = s1;
    c2[j] = s2;
    c3[j] = s3;
  }
}

template <class AAt>
inline void fma_row1(int n, int k0, int k1, AAt a_at, const float* b, float* c0) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(c0 + j);
    for (int kk = k0; kk < k1; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(a_at(0, kk)),
                            _mm256_loadu_ps(b + static_cast<long>(kk) * n + j), acc);
    }
    _mm256_storeu_ps(c0 + j, acc);
  }
  for (; j < n; ++j) {
    float s = c0[j];
    for (int kk = k0; kk < k1; ++kk) s = std::fma(a_at(0, kk), b[static_cast<long>(kk) * n + j], s);
    c0[j] = s;
  }
}

/// Dot product with four 8-lane accumulators folded lo-to-hi at the end; the
/// tail terms are added last, mirroring the scalar dot_lanes structure.
inline float dot_avx2(int k, const float* x, const float* y) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int kk = 0;
  for (; kk + 32 <= k; kk += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk), _mm256_loadu_ps(y + kk), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 8), _mm256_loadu_ps(y + kk + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 16), _mm256_loadu_ps(y + kk + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 24), _mm256_loadu_ps(y + kk + 24), acc3);
  }
  for (; kk + 8 <= k; kk += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk), _mm256_loadu_ps(y + kk), acc0);
  }
  acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  float s = hsum8(acc0);
  for (; kk < k; ++kk) s += x[kk] * y[kk];
  return s;
}

/// In-place 8x8 transpose: on return r[i] holds lane i of every input row.
/// Pure data movement, so no value changes.
inline void transpose8(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Pack rows a[0..8) (row stride k, k % 8 == 0) into the Aᵀ panel
/// panel[kk*8 + r] = a[r*k + kk]: one 8-row vector per kk.
inline void pack_panel8(int k, const float* a, float* panel) {
  for (int kk = 0; kk < k; kk += 8) {
    __m256 r[8];
    for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(a + static_cast<long>(i) * k + kk);
    transpose8(r);
    for (int i = 0; i < 8; ++i) _mm256_storeu_ps(panel + static_cast<long>(kk + i) * 8, r[i]);
  }
}

/// C[0..8, 0..8) += A·Bᵀ for the 8 rows packed in `panel` and B rows
/// b[0..8) (row stride k, k % 8 == 0), bit for bit what dot_avx2 gives each
/// output. dot_avx2 sums term kk into slot q = kk % 32 (its accumulator q/8,
/// lane q%8) while kk lies in the 32-wide body, and into slot kk % 8 after
/// it; here each slot's FMA chain runs with the 8 rows in the vector lanes
/// and 8 columns side by side. The slots then fold as dot_avx2 folds them —
/// accumulators (0+1)+(2+3), then hsum8's lane tree — and the finished tile
/// is transposed and added into the C rows.
inline void abt_tile8x8(int k, const float* panel, const float* b, float* c, int ldc) {
  alignas(32) float slots[32][8][8];  // [slot][column][row]
  const int body = k / 32 * 32;
  for (int q = 0; q < (body > 0 ? 32 : 8); ++q) {
    __m256 acc[8];
    for (int j = 0; j < 8; ++j) acc[j] = _mm256_setzero_ps();
    const auto step = [&](int kk) {
      const __m256 av = _mm256_loadu_ps(panel + static_cast<long>(kk) * 8);
      for (int j = 0; j < 8; ++j) {
        acc[j] = _mm256_fmadd_ps(av, _mm256_broadcast_ss(b + static_cast<long>(j) * k + kk),
                                 acc[j]);
      }
    };
    for (int kk = q; kk < body; kk += 32) step(kk);
    if (q < 8) {
      for (int kk = body + q; kk < k; kk += 8) step(kk);
    }
    for (int j = 0; j < 8; ++j) _mm256_store_ps(slots[q][j], acc[j]);
  }
  const __m256 zero = _mm256_setzero_ps();
  // dot_avx2's lane l after (acc0 + acc1) + (acc2 + acc3). Below K = 32 its
  // accumulators 1-3 stay zero, and (x + 0) + (0 + 0) equals x + 0 bit for
  // bit: x + 0 is never -0, and adding +0 to anything else is exact.
  const auto lane = [&](int l, int j) {
    const __m256 s0 = _mm256_load_ps(slots[l][j]);
    if (body == 0) return _mm256_add_ps(s0, zero);
    return _mm256_add_ps(_mm256_add_ps(s0, _mm256_load_ps(slots[8 + l][j])),
                         _mm256_add_ps(_mm256_load_ps(slots[16 + l][j]),
                                       _mm256_load_ps(slots[24 + l][j])));
  };
  __m256 out[8];
  for (int j = 0; j < 8; ++j) {
    __m256 t[8];
    for (int l = 0; l < 8; ++l) t[l] = lane(l, j);
    out[j] = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(t[0], t[4]), _mm256_add_ps(t[1], t[5])),
                           _mm256_add_ps(_mm256_add_ps(t[2], t[6]), _mm256_add_ps(t[3], t[7])));
  }
  transpose8(out);
  for (int i = 0; i < 8; ++i) {
    float* ci = c + static_cast<long>(i) * ldc;
    _mm256_storeu_ps(ci, _mm256_add_ps(_mm256_loadu_ps(ci), out[i]));
  }
}

/// Row i of C += A·Bᵀ for columns [j0, n), one dot_avx2 per output.
inline void abt_row_dots(int n, int k, int j0, const float* ai, const float* b, float* ci) {
  for (int j = j0; j < n; ++j) ci[j] += dot_avx2(k, ai, b + static_cast<long>(j) * k);
}

}  // namespace

void sgemm(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int k0 = 0; k0 < k; k0 += kGemmKBlock) {
    const int k1 = k0 + kGemmKBlock < k ? k0 + kGemmKBlock : k;
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* ai = a + static_cast<long>(i) * k;
      float* ci = c + static_cast<long>(i) * n;
      fma_rows4(
          n, k0, k1, [&](int r, int kk) { return ai[static_cast<long>(r) * k + kk]; }, b, ci,
          ci + n, ci + 2 * static_cast<long>(n), ci + 3 * static_cast<long>(n));
    }
    for (; i < m; ++i) {
      const float* ai = a + static_cast<long>(i) * k;
      fma_row1(
          n, k0, k1, [&](int, int kk) { return ai[kk]; }, b, c + static_cast<long>(i) * n);
    }
  }
}

void sgemm_atb(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int k0 = 0; k0 < k; k0 += kGemmKBlock) {
    const int k1 = k0 + kGemmKBlock < k ? k0 + kGemmKBlock : k;
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      float* ci = c + static_cast<long>(i) * n;
      fma_rows4(
          n, k0, k1, [&](int r, int kk) { return a[static_cast<long>(kk) * m + i + r]; }, b, ci,
          ci + n, ci + 2 * static_cast<long>(n), ci + 3 * static_cast<long>(n));
    }
    for (; i < m; ++i) {
      fma_row1(
          n, k0, k1, [&](int, int kk) { return a[static_cast<long>(kk) * m + i]; }, b,
          c + static_cast<long>(i) * n);
    }
  }
}

void sgemm_abt(int m, int n, int k, const float* a, const float* b, float* c) {
  // Full 8x8 tiles when K has no scalar tail; ragged rows and columns, and
  // every output when k % 8 != 0, keep the per-output dot. Either way each
  // output is the same value, so a row does not depend on M.
  int i = 0;
  if (k % 8 == 0 && m >= 8 && n >= 8) {
    thread_local std::vector<float> panel;  // one 8xK Aᵀ panel per thread
    panel.resize(static_cast<std::size_t>(k) * 8);
    const int n8 = n / 8 * 8;
    for (; i + 8 <= m; i += 8) {
      const float* ai = a + static_cast<long>(i) * k;
      float* ci = c + static_cast<long>(i) * n;
      pack_panel8(k, ai, panel.data());
      for (int j = 0; j < n8; j += 8) {
        abt_tile8x8(k, panel.data(), b + static_cast<long>(j) * k, ci + j, n);
      }
      for (int r = 0; r < 8; ++r) {
        abt_row_dots(n, k, n8, ai + static_cast<long>(r) * k, b, ci + static_cast<long>(r) * n);
      }
    }
  }
  for (; i < m; ++i) {
    abt_row_dots(n, k, 0, a + static_cast<long>(i) * k, b, c + static_cast<long>(i) * n);
  }
}

void igemm_abt_u8s8(int m, int n, int k, const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c) {
  // vpmaddubsw treats A as unsigned — valid because the u8s8 contract pins A
  // codes to [0,127], where the signed and unsigned readings coincide and the
  // int16 pair sums stay below 2·127·127 < 2^15 (no saturation). 32 products
  // per instruction instead of the 16 of a sign-extending madd_epi16 body,
  // same exact int32 result.
  const __m256i ones = _mm256_set1_epi16(1);
  for (int i = 0; i < m; ++i) {
    const std::int8_t* ai = a + static_cast<long>(i) * k;
    std::int32_t* ci = c + static_cast<long>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = b + static_cast<long>(j) * k;
      const std::int8_t* b1 = b0 + k;
      const std::int8_t* b2 = b1 + k;
      const std::int8_t* b3 = b2 + k;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      int kk = 0;
      for (; kk + 32 <= k; kk += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ai + kk));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, _mm256_loadu_si256(
                                                   reinterpret_cast<const __m256i*>(b0 + kk))),
                      ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, _mm256_loadu_si256(
                                                   reinterpret_cast<const __m256i*>(b1 + kk))),
                      ones));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, _mm256_loadu_si256(
                                                   reinterpret_cast<const __m256i*>(b2 + kk))),
                      ones));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, _mm256_loadu_si256(
                                                   reinterpret_cast<const __m256i*>(b3 + kk))),
                      ones));
      }
      for (; kk + 16 <= k; kk += 16) {
        const __m256i av = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ai + kk)));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                            reinterpret_cast<const __m128i*>(b0 + kk)))));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                            reinterpret_cast<const __m128i*>(b1 + kk)))));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                            reinterpret_cast<const __m128i*>(b2 + kk)))));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(_mm_loadu_si128(
                                            reinterpret_cast<const __m128i*>(b3 + kk)))));
      }
      alignas(16) std::int32_t s[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(s), hsum4x8_i32(acc0, acc1, acc2, acc3));
      for (; kk < k; ++kk) {
        const std::int32_t av = ai[kk];
        s[0] += av * static_cast<std::int32_t>(b0[kk]);
        s[1] += av * static_cast<std::int32_t>(b1[kk]);
        s[2] += av * static_cast<std::int32_t>(b2[kk]);
        s[3] += av * static_cast<std::int32_t>(b3[kk]);
      }
      ci[j] += s[0];
      ci[j + 1] += s[1];
      ci[j + 2] += s[2];
      ci[j + 3] += s[3];
    }
    for (; j < n; ++j) {
      const std::int8_t* bj = b + static_cast<long>(j) * k;
      __m256i acc = _mm256_setzero_si256();
      int kk = 0;
      for (; kk + 32 <= k; kk += 32) {
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_maddubs_epi16(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ai + kk)),
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bj + kk))),
                ones));
      }
      for (; kk + 16 <= k; kk += 16) {
        const __m256i av = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ai + kk)));
        const __m256i bv = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bj + kk)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
      }
      std::int32_t s = hsum8_i32(acc);
      for (; kk < k; ++kk) {
        s += static_cast<std::int32_t>(ai[kk]) * static_cast<std::int32_t>(bj[kk]);
      }
      ci[j] += s;
    }
  }
}

}  // namespace lbchat::nn::detail::avx2

#endif  // x86
