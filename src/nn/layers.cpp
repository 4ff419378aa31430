#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/frame.h"
#include "nn/gemm.h"
#include "obs/trace.h"

namespace lbchat::nn {

namespace {

/// He-normal initialization for a fan-in of `fan_in`.
void he_init(std::span<float> w, int fan_in, Rng& rng) {
  const double std = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, std));
}

}  // namespace

Linear::Linear(ParamStore& store, int in_dim, int out_dim, Rng& init)
    : in(in_dim), out(out_dim) {
  if (in_dim <= 0 || out_dim <= 0) throw std::invalid_argument{"Linear: bad dims"};
  w_off = store.allocate(static_cast<std::size_t>(in_dim) * out_dim);
  b_off = store.allocate(static_cast<std::size_t>(out_dim));
  he_init(store.param(w_off, static_cast<std::size_t>(in_dim) * out_dim), in_dim, init);
  // biases start at zero (already zero-filled by allocate)
}

void Linear::forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                     int batch) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(in) * out);
  const auto b = store.param(b_off, static_cast<std::size_t>(out));
  // y = b (broadcast), then y += x · Wᵀ.
  for (int n = 0; n < batch; ++n) {
    float* yn = y.data() + static_cast<std::size_t>(n) * out;
    for (int o = 0; o < out; ++o) yn[o] = b[static_cast<std::size_t>(o)];
  }
  sgemm_abt(batch, out, in, x.data(), w.data(), y.data());
}

void Linear::backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                      std::span<float> gx, int batch) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(in) * out);
  auto gw = store.grad(w_off, static_cast<std::size_t>(in) * out);
  auto gb = store.grad(b_off, static_cast<std::size_t>(out));
  for (int n = 0; n < batch; ++n) {
    const float* gyn = gy.data() + static_cast<std::size_t>(n) * out;
    for (int o = 0; o < out; ++o) gb[static_cast<std::size_t>(o)] += gyn[o];
  }
  // gW [out,in] += gyᵀ [out,B] · x [B,in].
  sgemm_atb(out, in, batch, gy.data(), x.data(), gw.data());
  // gx [B,in] += gy [B,out] · W [out,in].
  if (!gx.empty()) sgemm(batch, in, out, gy.data(), w.data(), gx.data());
}

void Linear::naive_forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                           int batch) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(in) * out);
  const auto b = store.param(b_off, static_cast<std::size_t>(out));
  for (int n = 0; n < batch; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in;
    float* yn = y.data() + static_cast<std::size_t>(n) * out;
    for (int o = 0; o < out; ++o) {
      const float* wo = w.data() + static_cast<std::size_t>(o) * in;
      float acc = b[static_cast<std::size_t>(o)];
      for (int i = 0; i < in; ++i) acc += wo[i] * xn[i];
      yn[o] = acc;
    }
  }
}

void Linear::naive_backward(ParamStore& store, std::span<const float> x,
                            std::span<const float> gy, std::span<float> gx, int batch) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(in) * out);
  auto gw = store.grad(w_off, static_cast<std::size_t>(in) * out);
  auto gb = store.grad(b_off, static_cast<std::size_t>(out));
  for (int n = 0; n < batch; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in;
    const float* gyn = gy.data() + static_cast<std::size_t>(n) * out;
    for (int o = 0; o < out; ++o) {
      const float g = gyn[o];
      if (g == 0.0f) continue;
      gb[static_cast<std::size_t>(o)] += g;
      float* gwo = gw.data() + static_cast<std::size_t>(o) * in;
      for (int i = 0; i < in; ++i) gwo[i] += g * xn[i];
    }
    if (!gx.empty()) {
      float* gxn = gx.data() + static_cast<std::size_t>(n) * in;
      for (int i = 0; i < in; ++i) {
        float acc = 0.0f;
        for (int o = 0; o < out; ++o) {
          acc += gyn[o] * w[static_cast<std::size_t>(o) * in + i];
        }
        gxn[i] += acc;
      }
    }
  }
}

Conv2d::Conv2d(ParamStore& store, int in_channels, int out_channels, int in_height, int in_width,
               int kernel_size, int stride_, int pad_, Rng& init)
    : in_ch(in_channels),
      out_ch(out_channels),
      kernel(kernel_size),
      stride(stride_),
      pad(pad_),
      in_h(in_height),
      in_w(in_width) {
  if (in_ch <= 0 || out_ch <= 0 || kernel <= 0 || stride <= 0 || pad < 0) {
    throw std::invalid_argument{"Conv2d: bad config"};
  }
  out_h = (in_h + 2 * pad - kernel) / stride + 1;
  out_w = (in_w + 2 * pad - kernel) / stride + 1;
  if (out_h <= 0 || out_w <= 0) throw std::invalid_argument{"Conv2d: degenerate output"};
  const std::size_t wn = static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel;
  w_off = store.allocate(wn);
  b_off = store.allocate(static_cast<std::size_t>(out_ch));
  he_init(store.param(w_off, wn), in_ch * kernel * kernel, init);

  // Output row r reads input row r*stride - pad + kr, which lies inside
  // [0, in_h) exactly for r in [r_lo, r_hi); likewise for columns.
  const auto band = [this](int k, int extent, int out_extent, int& lo, int& hi) {
    lo = 0;
    while (lo < out_extent && lo * stride - pad + k < 0) ++lo;
    hi = lo;
    while (hi < out_extent && hi * stride - pad + k < extent) ++hi;
  };
  taps_.resize(static_cast<std::size_t>(kernel) * kernel);
  for (int kr = 0; kr < kernel; ++kr) {
    for (int kc = 0; kc < kernel; ++kc) {
      Tap& t = taps_[static_cast<std::size_t>(kr * kernel + kc)];
      band(kr, in_h, out_h, t.r_lo, t.r_hi);
      band(kc, in_w, out_w, t.c_lo, t.c_hi);
      t.src = (t.r_lo * stride - pad + kr) * in_w + (t.c_lo * stride - pad + kc);
      if (t.r_lo >= t.r_hi || t.c_lo >= t.c_hi) t = Tap{};  // all padding
    }
  }
  // In the padded plane, output pixel (r, c) of tap (kr, kc) reads row
  // r*stride + kr and column c*stride + kc.
  const int padded_w = in_w + 2 * pad;
  padded_taps_.resize(taps_.size() * out_plane());
  std::int32_t* o = padded_taps_.data();
  for (int kr = 0; kr < kernel; ++kr) {
    for (int kc = 0; kc < kernel; ++kc) {
      for (int r = 0; r < out_h; ++r) {
        for (int c = 0; c < out_w; ++c) *o++ = (r * stride + kr) * padded_w + c * stride + kc;
      }
    }
  }
}

namespace {

/// The one unfold loop behind both Conv2d::unfold overloads;
/// `fill_row(ic, r, dst)` writes input row r of channel ic as floats. Each
/// input channel is first copied into a zero-bordered plane; every column row
/// is then one gather through the padded offsets, with no bounds test and no
/// strided row walk.
template <class FillRow>
void unfold_planned(const Conv2d& cv, float* col, std::size_t col_stride,
                    std::span<const std::int32_t> padded_taps, FillRow fill_row) {
  const auto pad = static_cast<std::size_t>(cv.pad);
  const std::size_t padded_w = static_cast<std::size_t>(cv.in_w) + 2 * pad;
  const std::size_t padded_plane = (static_cast<std::size_t>(cv.in_h) + 2 * pad) * padded_w;
  thread_local std::vector<float> padded;
  padded.assign(padded_plane, 0.0f);  // the border stays zero across channels
  const std::size_t plane = cv.out_plane();
  const std::size_t taps_n = padded_taps.size() / plane;
  float* dst = col;
  for (std::size_t ic = 0; ic < static_cast<std::size_t>(cv.in_ch); ++ic) {
    for (std::size_t r = 0; r < static_cast<std::size_t>(cv.in_h); ++r) {
      fill_row(ic, r, padded.data() + (r + pad) * padded_w + pad);
    }
    const float* src = padded.data();
    for (std::size_t t = 0; t < taps_n; ++t) {
      const std::int32_t* off = padded_taps.data() + t * plane;
      for (std::size_t p = 0; p < plane; ++p) dst[p] = src[off[p]];
      dst += col_stride;
    }
  }
}

}  // namespace

void Conv2d::unfold(const float* x, std::size_t channel_stride, float* col,
                    std::size_t col_stride) const {
  const auto w = static_cast<std::size_t>(in_w);
  unfold_planned(*this, col, col_stride, padded_taps_,
                 [&](std::size_t ic, std::size_t r, float* dst) {
                   std::copy_n(x + ic * channel_stride + r * w, w, dst);
                 });
}

void Conv2d::unfold(const std::uint8_t* bits, float* col, std::size_t col_stride) const {
  const auto w = static_cast<std::size_t>(in_w);
  const auto h = static_cast<std::size_t>(in_h);
  unfold_planned(*this, col, col_stride, padded_taps_,
                 [&](std::size_t ic, std::size_t r, float* dst) {
                   data::expand_bits<0.0f, 1.0f>(bits, (ic * h + r) * w, w, dst);
                 });
}

void Conv2d::col2im(const float* col, float* gx) const {
  // The unfold's transpose, through the plan's per-tap rectangles; each gx
  // element receives its terms in (ic, kr, kc, r, c) order, as the direct
  // loops would add them.
  const std::size_t plane = out_plane();
  const auto row_step = static_cast<std::size_t>(stride) * in_w;
  const float* src = col;
  for (int ic = 0; ic < in_ch; ++ic) {
    float* gxp = gx + static_cast<std::size_t>(ic) * in_plane();
    for (const Tap& t : taps_) {
      for (int r = t.r_lo; r < t.r_hi; ++r) {
        float* dst = gxp + t.src + static_cast<std::size_t>(r - t.r_lo) * row_step;
        const float* srow = src + static_cast<std::size_t>(r) * out_w;
        for (int c = t.c_lo; c < t.c_hi; ++c) {
          dst[static_cast<std::size_t>(c - t.c_lo) * stride] += srow[c];
        }
      }
      src += plane;
    }
  }
}

void Conv2d::gemm_forward(const ParamStore& store, const float* cols, std::size_t n,
                          float* y) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(out_ch) * col_rows());
  const auto b = store.param(b_off, static_cast<std::size_t>(out_ch));
  for (int oc = 0; oc < out_ch; ++oc) {
    std::fill_n(y + static_cast<std::size_t>(oc) * n, n, b[static_cast<std::size_t>(oc)]);
  }
  // y [out_ch, n] += W [out_ch, kdim] · cols [kdim, n].
  sgemm(out_ch, static_cast<int>(n), col_rows(), w.data(), cols, y);
}

void Conv2d::forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                     int batch, std::vector<float>& cols) const {
  LBCHAT_OBS_SPAN("nn.conv2d_fwd");
  const std::size_t per_sample = static_cast<std::size_t>(col_rows()) * out_plane();
  cols.resize(static_cast<std::size_t>(batch) * per_sample);
  for (int n = 0; n < batch; ++n) {
    float* col = cols.data() + static_cast<std::size_t>(n) * per_sample;
    unfold(x.data() + static_cast<std::size_t>(n) * in_numel(), in_plane(), col, out_plane());
    gemm_forward(store, col, out_plane(), y.data() + static_cast<std::size_t>(n) * out_numel());
  }
}

void Conv2d::backward(ParamStore& store, std::span<const float> cols, std::span<const float> gy,
                      std::span<float> gx, int batch, std::vector<float>& gcol_scratch) const {
  LBCHAT_OBS_SPAN("nn.conv2d_bwd");
  const auto w = store.param(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  auto gw = store.grad(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  auto gb = store.grad(b_off, static_cast<std::size_t>(out_ch));
  const int kdim = col_rows();
  const std::size_t plane = out_plane();
  const std::size_t per_sample = static_cast<std::size_t>(kdim) * plane;
  if (cols.size() < static_cast<std::size_t>(batch) * per_sample) {
    throw std::invalid_argument{"Conv2d::backward: columns do not cover the batch"};
  }
  const bool need_gx = !gx.empty();
  if (need_gx) gcol_scratch.resize(per_sample);
  for (int n = 0; n < batch; ++n) {
    const float* col = cols.data() + static_cast<std::size_t>(n) * per_sample;
    const float* gyn = gy.data() + static_cast<std::size_t>(n) * out_numel();
    for (int oc = 0; oc < out_ch; ++oc) {
      const float* gyp = gyn + static_cast<std::size_t>(oc) * plane;
      float acc = 0.0f;
      for (std::size_t i = 0; i < plane; ++i) acc += gyp[i];
      gb[static_cast<std::size_t>(oc)] += acc;
    }
    // gW [out_ch, kdim] += gy_n [out_ch, out_plane] · colᵀ.
    sgemm_abt(out_ch, kdim, static_cast<int>(plane), gyn, col, gw.data());
    if (need_gx) {
      // gcol [kdim, out_plane] = Wᵀ · gy_n, then fold back onto gx_n.
      std::fill(gcol_scratch.begin(), gcol_scratch.end(), 0.0f);
      sgemm_atb(kdim, static_cast<int>(plane), out_ch, w.data(), gyn, gcol_scratch.data());
      col2im(gcol_scratch.data(), gx.data() + static_cast<std::size_t>(n) * in_numel());
    }
  }
}

void Conv2d::naive_forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                           int batch) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  const auto b = store.param(b_off, static_cast<std::size_t>(out_ch));
  const std::size_t in_plane = static_cast<std::size_t>(in_h) * in_w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  for (int n = 0; n < batch; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in_ch * in_plane;
    float* yn = y.data() + static_cast<std::size_t>(n) * out_ch * out_plane;
    for (int oc = 0; oc < out_ch; ++oc) {
      float* yp = yn + static_cast<std::size_t>(oc) * out_plane;
      const float bias = b[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < out_plane; ++i) yp[i] = bias;
      for (int ic = 0; ic < in_ch; ++ic) {
        const float* xp = xn + static_cast<std::size_t>(ic) * in_plane;
        const float* wp =
            w.data() + ((static_cast<std::size_t>(oc) * in_ch + ic) * kernel) * kernel;
        for (int r = 0; r < out_h; ++r) {
          for (int c = 0; c < out_w; ++c) {
            float acc = 0.0f;
            const int r0 = r * stride - pad;
            const int c0 = c * stride - pad;
            for (int kr = 0; kr < kernel; ++kr) {
              const int ri = r0 + kr;
              if (ri < 0 || ri >= in_h) continue;
              for (int kc = 0; kc < kernel; ++kc) {
                const int ci = c0 + kc;
                if (ci < 0 || ci >= in_w) continue;
                acc += xp[static_cast<std::size_t>(ri) * in_w + ci] * wp[kr * kernel + kc];
              }
            }
            yp[static_cast<std::size_t>(r) * out_w + c] += acc;
          }
        }
      }
    }
  }
}

void Conv2d::naive_backward(ParamStore& store, std::span<const float> x,
                            std::span<const float> gy, std::span<float> gx, int batch) const {
  const auto w = store.param(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  auto gw = store.grad(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  auto gb = store.grad(b_off, static_cast<std::size_t>(out_ch));
  const std::size_t in_plane = static_cast<std::size_t>(in_h) * in_w;
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  for (int n = 0; n < batch; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in_ch * in_plane;
    const float* gyn = gy.data() + static_cast<std::size_t>(n) * out_ch * out_plane;
    float* gxn = gx.empty() ? nullptr : gx.data() + static_cast<std::size_t>(n) * in_ch * in_plane;
    for (int oc = 0; oc < out_ch; ++oc) {
      const float* gyp = gyn + static_cast<std::size_t>(oc) * out_plane;
      for (std::size_t i = 0; i < out_plane; ++i) gb[static_cast<std::size_t>(oc)] += gyp[i];
      for (int ic = 0; ic < in_ch; ++ic) {
        const float* xp = xn + static_cast<std::size_t>(ic) * in_plane;
        const std::size_t w_base = (static_cast<std::size_t>(oc) * in_ch + ic) *
                                   static_cast<std::size_t>(kernel) * kernel;
        for (int r = 0; r < out_h; ++r) {
          const int r0 = r * stride - pad;
          for (int c = 0; c < out_w; ++c) {
            const float g = gyp[static_cast<std::size_t>(r) * out_w + c];
            if (g == 0.0f) continue;
            const int c0 = c * stride - pad;
            for (int kr = 0; kr < kernel; ++kr) {
              const int ri = r0 + kr;
              if (ri < 0 || ri >= in_h) continue;
              for (int kc = 0; kc < kernel; ++kc) {
                const int ci = c0 + kc;
                if (ci < 0 || ci >= in_w) continue;
                const std::size_t xi = static_cast<std::size_t>(ri) * in_w + ci;
                gw[w_base + static_cast<std::size_t>(kr) * kernel + kc] += g * xp[xi];
                if (gxn != nullptr) {
                  gxn[static_cast<std::size_t>(ic) * in_plane + xi] +=
                      g * w[w_base + static_cast<std::size_t>(kr) * kernel + kc];
                }
              }
            }
          }
        }
      }
    }
  }
}

void relu_forward(std::span<float> x) {
  for (float& v : x) v = v > 0.0f ? v : 0.0f;
}

void relu_backward(std::span<const float> y, std::span<float> gy) {
  // A select, not a branch: which units are dead is data the predictor
  // cannot learn, and the select vectorizes. Same predicate, so a NaN y
  // keeps its gradient and a -0 y zeroes it, as the branch did.
  for (std::size_t i = 0; i < y.size(); ++i) gy[i] = y[i] <= 0.0f ? 0.0f : gy[i];
}

}  // namespace lbchat::nn
