// The 4-wide Adam body behind Adam::step on the AVX2 path (DESIGN.md §15).
// It must equal the scalar loop in optim.cpp bit for bit, so every float
// multiply and add stays a separate rounding: this unit is built without
// -mfma and with -ffp-contract=off, because GCC fuses a generic-vector
// multiply followed by an add into one FMA wherever FMA is enabled.
#include "nn/optim.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace lbchat::nn::detail::avx2 {

std::size_t adam_update(const AdamCoeffs& c, std::size_t n, float* params, const float* grads,
                        float* m, float* v) {
  const __m128 b1 = _mm_set1_ps(c.b1);
  const __m128 b2 = _mm_set1_ps(c.b2);
  const __m128 one_minus_b1 = _mm_set1_ps(c.one_minus_b1);
  const __m128 one_minus_b2 = _mm_set1_ps(c.one_minus_b2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  const __m256d wd = _mm256_set1_pd(c.weight_decay);
  const std::size_t n4 = n - n % 4;
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128 g = _mm_loadu_ps(grads + i);
    // m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g  (float, one rounding each).
    const __m128 mi = _mm_add_ps(_mm_mul_ps(b1, _mm_loadu_ps(m + i)), _mm_mul_ps(one_minus_b1, g));
    const __m128 vi =
        _mm_add_ps(_mm_mul_ps(b2, _mm_loadu_ps(v + i)), _mm_mul_ps(_mm_mul_ps(one_minus_b2, g), g));
    _mm_storeu_ps(m + i, mi);
    _mm_storeu_ps(v + i, vi);
    // p -= float(lr * (mhat / (sqrt(vhat) + eps) + wd * p))  (double).
    const __m128 p = _mm_loadu_ps(params + i);
    const __m256d mhat = _mm256_div_pd(_mm256_cvtps_pd(mi), bc1);
    const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(vi), bc2);
    const __m256d step =
        _mm256_add_pd(_mm256_div_pd(mhat, _mm256_add_pd(_mm256_sqrt_pd(vhat), eps)),
                      _mm256_mul_pd(wd, _mm256_cvtps_pd(p)));
    _mm_storeu_ps(params + i, _mm_sub_ps(p, _mm256_cvtpd_ps(_mm256_mul_pd(lr, step))));
  }
  return n4;
}

}  // namespace lbchat::nn::detail::avx2

#endif  // x86
