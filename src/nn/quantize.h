// Symmetric int8 quantization for the forward-only int8 eval path
// (DESIGN.md §15), at a granularity matched to integer GEMM: one scale per
// weight row (= per output channel) and one per activation tensor, codes in
// [-127, 127] so products fit madd-style int16 pairs. Rounding is
// round-to-nearest (deterministic), dequantized value is code * scale.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lbchat::nn {

/// Row-wise symmetric int8 quantization of a dense [rows, row_len] matrix.
struct Int8Rows {
  std::vector<std::int8_t> codes;  ///< [rows, row_len], row-major
  std::vector<float> scales;       ///< per-row dequant scale (absmax/127; 0 for all-zero rows)
};
[[nodiscard]] Int8Rows quantize_rows_s8(std::span<const float> w, std::size_t row_len);

/// Per-tensor symmetric int8 quantization into `out` (x.size() codes);
/// returns the dequant scale (absmax/127; 0 — and all-zero codes — when x
/// is all zeros).
float quantize_tensor_s8(std::span<const float> x, std::int8_t* out);

}  // namespace lbchat::nn
