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

  /// x: [B, in_ch, in_h, in_w], y: [B, out_ch, out_h, out_w].
  ///
  /// Runs im2col + GEMM using the caller-owned scratch buffers (resized as
  /// needed, so repeat calls never allocate).
  void forward(const ParamStore& store, std::span<const float> x, std::span<float> y, int batch,
               std::vector<float>& col_scratch) const;
  /// gx (when non-empty) is accumulated (+=), param grads always accumulate.
  void backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                std::span<float> gx, int batch, std::vector<float>& col_scratch,
                std::vector<float>& gcol_scratch) const;

  /// Reference direct-convolution implementations (slow; parity oracle).
  void naive_forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                     int batch) const;
  void naive_backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                      std::span<float> gx, int batch) const;

  /// Rows of the im2col matrix (= in_ch * kernel * kernel).
  [[nodiscard]] int col_rows() const { return in_ch * kernel * kernel; }

 private:
  /// Unfold one sample [in_ch, in_h, in_w] into col [col_rows, out_h*out_w].
  void im2col(const float* x, float* col) const;
  /// Fold col-shaped gradients back onto one sample's gx (accumulating).
  void col2im(const float* col, float* gx) const;
};

/// y = max(x, 0), in place.
void relu_forward(std::span<float> x);
/// gx = gy * (y > 0), in place on gy, given the *post-activation* values y.
void relu_backward(std::span<const float> y, std::span<float> gy);

}  // namespace lbchat::nn
