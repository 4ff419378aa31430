// Minimal neural-network building blocks with manual backpropagation.
//
// The library keeps every parameter of a model in one flat float vector (a
// ParamStore); layers are descriptors holding offsets into that store. This
// makes the operations LbChat performs on whole models — top-k sparsification,
// weighted aggregation (Eq. (8)), serialization for the wire — trivial views
// over a single contiguous array.
//
// All shapes are row-major and batch-first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace lbchat::nn {

/// Flat parameter + gradient storage for one model.
class ParamStore {
 public:
  /// Reserve `n` consecutive parameters; returns their offset.
  std::size_t allocate(std::size_t n) {
    const std::size_t off = params_.size();
    params_.resize(off + n, 0.0f);
    grads_.resize(off + n, 0.0f);
    return off;
  }

  [[nodiscard]] std::size_t size() const { return params_.size(); }
  [[nodiscard]] std::span<float> params() { return params_; }
  [[nodiscard]] std::span<const float> params() const { return params_; }
  [[nodiscard]] std::span<float> grads() { return grads_; }
  [[nodiscard]] std::span<const float> grads() const { return grads_; }

  [[nodiscard]] std::span<float> param(std::size_t off, std::size_t n) {
    return std::span<float>{params_}.subspan(off, n);
  }
  [[nodiscard]] std::span<const float> param(std::size_t off, std::size_t n) const {
    return std::span<const float>{params_}.subspan(off, n);
  }
  [[nodiscard]] std::span<float> grad(std::size_t off, std::size_t n) {
    return std::span<float>{grads_}.subspan(off, n);
  }

  void zero_grads() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

 private:
  std::vector<float> params_;
  std::vector<float> grads_;
};

/// Fully-connected layer descriptor: y = x W^T + b, W is [out, in].
///
/// forward/backward run through the blocked SGEMM kernels (nn/gemm.h); the
/// naive_* twins keep the original scalar loops as the parity oracle for
/// tests. Both pairs compute the same math up to float reassociation.
struct Linear {
  int in = 0;
  int out = 0;
  std::size_t w_off = 0;  ///< offset of W in the store (out*in floats)
  std::size_t b_off = 0;  ///< offset of b (out floats)

  Linear() = default;
  Linear(ParamStore& store, int in_dim, int out_dim, Rng& init);

  /// x: [B, in], y: [B, out].
  void forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
               int batch) const;
  /// Accumulates parameter grads into the store; gx may be empty to skip
  /// input-gradient computation (first layer). gx is accumulated (+=).
  void backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                std::span<float> gx, int batch) const;

  /// Reference scalar implementations (slow; parity oracle).
  void naive_forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                     int batch) const;
  void naive_backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                      std::span<float> gx, int batch) const;
};

/// 2-D convolution descriptor (square kernel, zero padding).
///
/// Every unfold (im2col) goes through a gather plan built once per geometry
/// at construction, so no call divides out receptive-field bounds or fills
/// a whole column plane before overwriting it: per kernel tap and output
/// pixel, the offset read in the input plane zero-padded by `pad` on every
/// side, so the gather has no bounds test at all; and one Tap per kernel
/// tap t = kr*kernel + kc, which the backward's fold walks.
struct Conv2d {
  int in_ch = 0, out_ch = 0, kernel = 3, stride = 1, pad = 1;
  int in_h = 0, in_w = 0;    ///< expected input spatial size
  int out_h = 0, out_w = 0;  ///< derived output spatial size
  std::size_t w_off = 0;     ///< [out_ch, in_ch, k, k]
  std::size_t b_off = 0;     ///< [out_ch]

  Conv2d() = default;
  Conv2d(ParamStore& store, int in_channels, int out_channels, int in_height, int in_width,
         int kernel_size, int stride_, int pad_, Rng& init);

  [[nodiscard]] std::size_t out_numel() const {
    return static_cast<std::size_t>(out_ch) * out_h * out_w;
  }
  [[nodiscard]] std::size_t in_numel() const {
    return static_cast<std::size_t>(in_ch) * in_h * in_w;
  }
  [[nodiscard]] std::size_t out_plane() const { return static_cast<std::size_t>(out_h) * out_w; }
  [[nodiscard]] std::size_t in_plane() const { return static_cast<std::size_t>(in_h) * in_w; }

  /// x: [B, in_ch, in_h, in_w], y: [B, out_ch, out_h, out_w].
  ///
  /// Unfolds every sample into `cols` ([B][col_rows][out_plane], resized as
  /// needed, so repeat calls never allocate) and runs one GEMM per sample.
  /// The columns stay in `cols` for backward().
  void forward(const ParamStore& store, std::span<const float> x, std::span<float> y, int batch,
               std::vector<float>& cols) const;
  /// `cols` must hold the columns forward() left for the same batch; they
  /// stand in for x, so nothing is unfolded again. gx (when non-empty) is
  /// accumulated (+=), param grads always accumulate.
  void backward(ParamStore& store, std::span<const float> cols, std::span<const float> gy,
                std::span<float> gx, int batch, std::vector<float>& gcol_scratch) const;

  /// y [out_ch, n] = bias + W · cols [col_rows, n]: one GEMM over n unfolded
  /// pixels — one sample's out_plane, or a whole chunk's side by side.
  void gemm_forward(const ParamStore& store, const float* cols, std::size_t n, float* y) const;

  /// Unfold one sample through the gather plan: input channel ic starts at
  /// x + ic*channel_stride, column row r is written at col + r*col_stride.
  void unfold(const float* x, std::size_t channel_stride, float* col,
              std::size_t col_stride) const;
  /// The same unfold straight from a bit-packed binary raster
  /// ([in_ch][in_h][in_w] cells, cell i at bit i%8 of byte i/8, as
  /// data::BevGrid holds it): a set bit reads 1.0f, a clear one 0.0f.
  void unfold(const std::uint8_t* bits, float* col, std::size_t col_stride) const;

  /// Reference direct-convolution implementations (slow; parity oracle).
  void naive_forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                     int batch) const;
  void naive_backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                      std::span<float> gx, int batch) const;

  /// Rows of the im2col matrix (= in_ch * kernel * kernel).
  [[nodiscard]] int col_rows() const { return in_ch * kernel * kernel; }

 private:
  /// Where one kernel tap (kr, kc) reads: the output pixels (r, c) with r in
  /// [r_lo, r_hi) and c in [c_lo, c_hi) read inside the input, at input-plane
  /// offset src + (r - r_lo)*stride*in_w + (c - c_lo)*stride; every other
  /// output pixel reads the zero padding.
  struct Tap {
    int r_lo = 0, r_hi = 0, c_lo = 0, c_hi = 0;
    int src = 0;
  };

  /// Fold col-shaped gradients back onto one sample's gx (accumulating).
  void col2im(const float* col, float* gx) const;

  std::vector<Tap> taps_;
  /// [kernel*kernel][out_plane] offsets into the zero-padded input plane.
  std::vector<std::int32_t> padded_taps_;
};

/// y = max(x, 0), in place.
void relu_forward(std::span<float> x);
/// gx = gy * (y > 0), in place on gy, given the *post-activation* values y.
void relu_backward(std::span<const float> y, std::span<float> gy);

}  // namespace lbchat::nn
