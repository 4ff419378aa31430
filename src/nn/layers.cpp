#include "nn/layers.h"

#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"
#include "obs/trace.h"

namespace lbchat::nn {

namespace {

/// He-normal initialization for a fan-in of `fan_in`.
void he_init(std::span<float> w, int fan_in, Rng& rng) {
  const double std = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, std));
}

/// Smallest output coordinate whose receptive field starts inside the input:
/// o*stride - pad + k >= 0, i.e. o >= (pad - k) / stride rounded up.
inline int first_valid(int pad_minus_k, int stride) {
  return pad_minus_k > 0 ? (pad_minus_k + stride - 1) / stride : 0;
}

/// One past the largest output coordinate still inside an input extent of
/// `limit`: o*stride - pad + k <= limit-1.
inline int last_valid(int limit, int pad_minus_k, int stride, int out_extent) {
  const int num = limit - 1 + pad_minus_k;
  if (num < 0) return 0;
  return std::min(out_extent, num / stride + 1);
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
}

void Conv2d::im2col(const float* x, float* col) const {
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t in_plane = static_cast<std::size_t>(in_h) * in_w;
  float* dst = col;
  for (int ic = 0; ic < in_ch; ++ic) {
    const float* xp = x + static_cast<std::size_t>(ic) * in_plane;
    for (int kr = 0; kr < kernel; ++kr) {
      const int r_lo = first_valid(pad - kr, stride);
      const int r_hi = last_valid(in_h, pad - kr, stride, out_h);
      for (int kc = 0; kc < kernel; ++kc) {
        const int c_lo = first_valid(pad - kc, stride);
        const int c_hi = last_valid(in_w, pad - kc, stride, out_w);
        std::fill(dst, dst + out_plane, 0.0f);
        for (int r = r_lo; r < r_hi; ++r) {
          const int ri = r * stride - pad + kr;
          const float* src = xp + static_cast<std::size_t>(ri) * in_w + (c_lo * stride - pad + kc);
          float* drow = dst + static_cast<std::size_t>(r) * out_w + c_lo;
          const int span = c_hi - c_lo;
          if (stride == 1) {
            for (int c = 0; c < span; ++c) drow[c] = src[c];
          } else {
            for (int c = 0; c < span; ++c) drow[c] = src[static_cast<std::size_t>(c) * stride];
          }
        }
        dst += out_plane;
      }
    }
  }
}

void Conv2d::col2im(const float* col, float* gx) const {
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t in_plane = static_cast<std::size_t>(in_h) * in_w;
  const float* src_row = col;
  for (int ic = 0; ic < in_ch; ++ic) {
    float* gxp = gx + static_cast<std::size_t>(ic) * in_plane;
    for (int kr = 0; kr < kernel; ++kr) {
      const int r_lo = first_valid(pad - kr, stride);
      const int r_hi = last_valid(in_h, pad - kr, stride, out_h);
      for (int kc = 0; kc < kernel; ++kc) {
        const int c_lo = first_valid(pad - kc, stride);
        const int c_hi = last_valid(in_w, pad - kc, stride, out_w);
        for (int r = r_lo; r < r_hi; ++r) {
          const int ri = r * stride - pad + kr;
          float* dst = gxp + static_cast<std::size_t>(ri) * in_w + (c_lo * stride - pad + kc);
          const float* srow = src_row + static_cast<std::size_t>(r) * out_w + c_lo;
          const int span = c_hi - c_lo;
          if (stride == 1) {
            for (int c = 0; c < span; ++c) dst[c] += srow[c];
          } else {
            for (int c = 0; c < span; ++c) dst[static_cast<std::size_t>(c) * stride] += srow[c];
          }
        }
        src_row += out_plane;
      }
    }
  }
}

void Conv2d::forward(const ParamStore& store, std::span<const float> x, std::span<float> y,
                     int batch, std::vector<float>& col_scratch) const {
  LBCHAT_OBS_SPAN("nn.conv2d_fwd");
  const auto w = store.param(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  const auto b = store.param(b_off, static_cast<std::size_t>(out_ch));
  const int kdim = col_rows();
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  col_scratch.resize(static_cast<std::size_t>(kdim) * out_plane);
  for (int n = 0; n < batch; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in_numel();
    float* yn = y.data() + static_cast<std::size_t>(n) * out_numel();
    im2col(xn, col_scratch.data());
    for (int oc = 0; oc < out_ch; ++oc) {
      float* yp = yn + static_cast<std::size_t>(oc) * out_plane;
      const float bias = b[static_cast<std::size_t>(oc)];
      for (std::size_t i = 0; i < out_plane; ++i) yp[i] = bias;
    }
    // y_n [out_ch, out_plane] += W [out_ch, kdim] · col [kdim, out_plane].
    sgemm(out_ch, static_cast<int>(out_plane), kdim, w.data(), col_scratch.data(), yn);
  }
}

void Conv2d::backward(ParamStore& store, std::span<const float> x, std::span<const float> gy,
                      std::span<float> gx, int batch, std::vector<float>& col_scratch,
                      std::vector<float>& gcol_scratch) const {
  LBCHAT_OBS_SPAN("nn.conv2d_bwd");
  const auto w = store.param(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  auto gw = store.grad(w_off, static_cast<std::size_t>(out_ch) * in_ch * kernel * kernel);
  auto gb = store.grad(b_off, static_cast<std::size_t>(out_ch));
  const int kdim = col_rows();
  const std::size_t out_plane = static_cast<std::size_t>(out_h) * out_w;
  const bool need_gx = !gx.empty();
  col_scratch.resize(static_cast<std::size_t>(kdim) * out_plane);
  if (need_gx) gcol_scratch.resize(static_cast<std::size_t>(kdim) * out_plane);
  for (int n = 0; n < batch; ++n) {
    const float* xn = x.data() + static_cast<std::size_t>(n) * in_numel();
    const float* gyn = gy.data() + static_cast<std::size_t>(n) * out_numel();
    im2col(xn, col_scratch.data());
    for (int oc = 0; oc < out_ch; ++oc) {
      const float* gyp = gyn + static_cast<std::size_t>(oc) * out_plane;
      float acc = 0.0f;
      for (std::size_t i = 0; i < out_plane; ++i) acc += gyp[i];
      gb[static_cast<std::size_t>(oc)] += acc;
    }
    // gW [out_ch, kdim] += gy_n [out_ch, out_plane] · colᵀ.
    sgemm_abt(out_ch, kdim, static_cast<int>(out_plane), gyn, col_scratch.data(), gw.data());
    if (need_gx) {
      // gcol [kdim, out_plane] = Wᵀ · gy_n, then fold back onto gx_n.
      std::fill(gcol_scratch.begin(), gcol_scratch.end(), 0.0f);
      sgemm_atb(kdim, static_cast<int>(out_plane), out_ch, w.data(), gyn, gcol_scratch.data());
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
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] <= 0.0f) gy[i] = 0.0f;
  }
}

}  // namespace lbchat::nn
