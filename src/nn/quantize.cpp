#include "nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lbchat::nn {

namespace {

/// One symmetric int8 code: clamp(round-half-away(x * 127 / absmax)). Pure
/// float arithmetic (add ±0.5, truncate) rather than lround so the loop
/// auto-vectorizes — activation tensors pass through here on every int8
/// forward call. The rounding point is pinned by the source, so codes are
/// identical on every build and dispatch path.
inline std::int8_t s8_code(float x, float inv_scale) {
  const float t = x * inv_scale;
  const int code = static_cast<int>(t + std::copysign(0.5f, t));
  return static_cast<std::int8_t>(std::clamp(code, -127, 127));
}

/// max |x[i]| with four independent partial maxima: float max reductions do
/// not auto-vectorize under strict FP semantics, so breaking the dependence
/// chain is what keeps this off the critical path of every int8 forward call.
inline float absmax_of(std::span<const float> x) {
  float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    m0 = std::max(m0, std::abs(x[i]));
    m1 = std::max(m1, std::abs(x[i + 1]));
    m2 = std::max(m2, std::abs(x[i + 2]));
    m3 = std::max(m3, std::abs(x[i + 3]));
  }
  for (; i < x.size(); ++i) m0 = std::max(m0, std::abs(x[i]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

}  // namespace

Int8Rows quantize_rows_s8(std::span<const float> w, std::size_t row_len) {
  if (row_len == 0 || w.size() % row_len != 0) {
    throw std::invalid_argument{"quantize_rows_s8: size not a multiple of row_len"};
  }
  const std::size_t rows = w.size() / row_len;
  Int8Rows q;
  q.codes.assign(w.size(), 0);
  q.scales.assign(rows, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src = w.data() + r * row_len;
    const float absmax = absmax_of({src, row_len});
    if (absmax <= 0.0f) continue;
    q.scales[r] = absmax / 127.0f;
    const float inv = 127.0f / absmax;
    std::int8_t* dst = q.codes.data() + r * row_len;
    for (std::size_t i = 0; i < row_len; ++i) dst[i] = s8_code(src[i], inv);
  }
  return q;
}

float quantize_tensor_s8(std::span<const float> x, std::int8_t* out) {
  const float absmax = absmax_of(x);
  if (absmax <= 0.0f) {
    std::fill(out, out + x.size(), static_cast<std::int8_t>(0));
    return 0.0f;
  }
  const float inv = 127.0f / absmax;
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = s8_code(x[i], inv);
  return absmax / 127.0f;
}

}  // namespace lbchat::nn
