#include "nn/int8_policy.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/gemm.h"
#include "nn/quantize.h"

namespace lbchat::nn {

using data::Command;

struct Int8Policy::Workspace {
  std::vector<std::int8_t> xq;    // one layer's input codes
  std::vector<std::int8_t> colT;  // conv2 panel [c*out_plane, kpad]
  std::vector<std::int32_t> acc;  // integer GEMM accumulator
  std::vector<float> xs;          // per-sample activation scales of one layer
  std::vector<float> deq;         // per-out-channel dequant factors
  std::vector<float> a1, a2, h, out;
  // One command group's rows, gathered contiguous for the branch heads.
  std::vector<std::size_t> rows;
  std::vector<float> hg, bhg, og;
};

namespace {

/// Quantize one layer's weight block row-wise and fold its dequantized
/// energy + float biases into the running ||x||² accumulator.
Int8Rows quantize_block(std::span<const float> w, std::size_t row_len,
                        std::span<const float> bias, double& l2_acc) {
  Int8Rows q = quantize_rows_s8(w, row_len);
  const std::size_t rows = q.scales.size();
  for (std::size_t r = 0; r < rows; ++r) {
    // Σ(s·code)² = s²·Σcode²: the inner sum is exact integer arithmetic, so
    // the per-row energy costs one multiply instead of one per code.
    std::int64_t sq = 0;
    const std::int8_t* row = q.codes.data() + r * row_len;
    for (std::size_t i = 0; i < row_len; ++i) {
      sq += static_cast<std::int64_t>(row[i]) * row[i];
    }
    const double s = static_cast<double>(q.scales[r]);
    l2_acc += s * s * static_cast<double>(sq);
  }
  for (const float b : bias) l2_acc += static_cast<double>(b) * b;
  return q;
}

/// Channel-last unfold of int8 codes: with `xq` stored [h][w][c], one
/// (output pixel, kernel row) pair's receptive-field row is a contiguous run
/// of kernel*in_ch codes, so panel row p fills with one clipped copy per
/// kernel row. Out-of-bounds rows and the kpad tail keep the zero codes the
/// caller filled (exact no-ops in the integer dot).
void unfold_codes(const Conv2d& g, const std::int8_t* xq, std::int8_t* panel,
                  std::size_t kpad) {
  const std::size_t in_row = static_cast<std::size_t>(g.in_w) * g.in_ch;
  for (int r = 0; r < g.out_h; ++r) {
    for (int kr = 0; kr < g.kernel; ++kr) {
      const int ri = r * g.stride - g.pad + kr;
      if (ri < 0 || ri >= g.in_h) continue;
      const std::int8_t* srow = xq + static_cast<std::size_t>(ri) * in_row;
      for (int c = 0; c < g.out_w; ++c) {
        const int c0 = c * g.stride - g.pad;  // input col under kc = 0
        const int kc_lo = c0 < 0 ? -c0 : 0;
        const int kc_hi = std::min(g.kernel, g.in_w - c0);
        if (kc_lo >= kc_hi) continue;
        std::int8_t* dst = panel + (static_cast<std::size_t>(r) * g.out_w + c) * kpad +
                           (static_cast<std::size_t>(kr) * g.kernel + kc_lo) * g.in_ch;
        std::memcpy(dst, srow + static_cast<std::size_t>(c0 + kc_lo) * g.in_ch,
                    static_cast<std::size_t>(kc_hi - kc_lo) * g.in_ch);
      }
    }
  }
}

}  // namespace

Int8Policy::Int8Policy(const DrivingPolicy& src) : cfg_(src.config()) {
  double l2 = 0.0;
  const ParamStore& store = src.store_;

  const auto quantize_conv = [&](const Conv2d& cv) {
    QConv qc;
    qc.geom = cv;
    const std::size_t row_len = static_cast<std::size_t>(cv.col_rows());
    const auto w = store.param(cv.w_off, static_cast<std::size_t>(cv.out_ch) * row_len);
    const auto b = store.param(cv.b_off, static_cast<std::size_t>(cv.out_ch));
    // Reorder each filter from [ic][kr][kc] into the channel-last [kr][kc][ic]
    // order the unfold writes. A permutation moves neither the row absmax nor
    // any dot-product term, so scales and conv outputs are unchanged.
    std::vector<float> wl(w.size());
    const int kk2 = cv.kernel * cv.kernel;
    for (int oc = 0; oc < cv.out_ch; ++oc) {
      const float* srow = w.data() + static_cast<std::size_t>(oc) * row_len;
      float* drow = wl.data() + static_cast<std::size_t>(oc) * row_len;
      for (int ic = 0; ic < cv.in_ch; ++ic) {
        for (int t = 0; t < kk2; ++t) drow[t * cv.in_ch + ic] = srow[ic * kk2 + t];
      }
    }
    Int8Rows q = quantize_block(wl, row_len, b, l2);
    // Pad rows to a multiple of 32 codes so the AVX2 u8s8 kernel has no
    // scalar k-tail; zero codes are exact no-ops against zero panel padding.
    qc.kpad = (cv.col_rows() + 31) / 32 * 32;
    qc.w.assign(static_cast<std::size_t>(cv.out_ch) * qc.kpad, 0);
    for (int oc = 0; oc < cv.out_ch; ++oc) {
      std::copy_n(q.codes.data() + static_cast<std::size_t>(oc) * row_len, row_len,
                  qc.w.data() + static_cast<std::size_t>(oc) * qc.kpad);
    }
    qc.scale = std::move(q.scales);
    qc.bias.assign(b.begin(), b.end());
    return qc;
  };
  const auto quantize_linear_w = [&](std::span<const float> w, std::span<const float> b,
                                     int in, int out) {
    QLinear ql;
    ql.in = in;
    ql.out = out;
    Int8Rows q = quantize_block(w, static_cast<std::size_t>(in), b, l2);
    ql.w = std::move(q.codes);
    ql.scale = std::move(q.scales);
    ql.bias.assign(b.begin(), b.end());
    return ql;
  };
  const auto quantize_linear = [&](const Linear& l) {
    const auto w = store.param(l.w_off, static_cast<std::size_t>(l.out) * l.in);
    const auto b = store.param(l.b_off, static_cast<std::size_t>(l.out));
    return quantize_linear_w(w, b, l.in, l.out);
  };

  conv1_ = quantize_conv(src.conv1_);
  conv2_ = quantize_conv(src.conv2_);
  {
    // fc consumes the flattened conv2 output, which this class keeps
    // channel-last — permute the weight columns from [oc][pixel] to
    // [pixel][oc] to match.
    const Linear& l = src.fc_;
    const auto w = store.param(l.w_off, static_cast<std::size_t>(l.out) * l.in);
    const auto b = store.param(l.b_off, static_cast<std::size_t>(l.out));
    const std::size_t plane =
        static_cast<std::size_t>(conv2_.geom.out_h) * conv2_.geom.out_w;
    const int oc_n = conv2_.geom.out_ch;
    std::vector<float> wl(w.size());
    for (int o = 0; o < l.out; ++o) {
      const float* srow = w.data() + static_cast<std::size_t>(o) * l.in;
      float* drow = wl.data() + static_cast<std::size_t>(o) * l.in;
      for (int oc = 0; oc < oc_n; ++oc) {
        for (std::size_t p = 0; p < plane; ++p) {
          drow[p * static_cast<std::size_t>(oc_n) + oc] = srow[oc * plane + p];
        }
      }
    }
    fc_ = quantize_linear_w(wl, b, l.in, l.out);
  }
  branches_.reserve(src.branches_.size());
  for (const auto& br : src.branches_) {
    branches_.push_back(QBranch{quantize_linear(br.hidden), quantize_linear(br.out)});
  }
  param_l2_ = std::sqrt(l2);
}

ScoringBatch::ScoringBatch(const Int8Policy& model, std::span<const data::Sample> samples) {
  std::vector<const data::Sample*> ptrs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) ptrs[i] = &samples[i];
  assign(model, ptrs);
}

void ScoringBatch::assign(const Int8Policy& model, std::span<const data::Sample* const> samples) {
  // The BEV is binary, so its int8 codes are known without a float raster
  // or an absmax pass: occupied cells quantize to exactly 127 at scale 1/127
  // (what quantize_tensor_s8 produces for a {0,1} tensor; on the all-zero
  // grid every product term is zero anyway). Each panel row is one output
  // pixel's receptive field in channel-last [kr][kc][ic] order; padding taps
  // and the kpad tail stay zero codes (exact no-ops in the integer dot).
  const Int8Policy::QConv& qc = model.conv1_;
  assign_labels(model.cfg_, samples, qc.kpad);
  cols_.clear();
  const Conv2d& g = qc.geom;
  const std::size_t plane = g.out_plane();
  const std::size_t in_plane = g.in_plane();
  const std::size_t kpad = static_cast<std::size_t>(qc.kpad);
  const auto ch = static_cast<std::size_t>(g.in_ch);
  codes_.assign(samples.size() * plane * kpad, 0);
  std::vector<std::int8_t> planes(in_plane * ch);
  std::vector<std::int8_t> xq(in_plane * ch);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // The sample's codes channel-major, eight per BEV byte; then channel-last,
    // after which every tap reads in_ch adjacent codes.
    data::expand_bits<std::int8_t{0}, std::int8_t{127}>(samples[i]->bev.bits.data(), 0,
                                                         planes.size(), planes.data());
    const auto code = [&](std::size_t ic, std::size_t px) { return planes[ic * in_plane + px]; };
    if (ch == 4) {
      // Fixed-width body for the default spec: a constant interleave factor
      // is what lets the compiler turn this byte transpose into shuffles.
      for (std::size_t px = 0; px < in_plane; ++px) {
        for (std::size_t ic = 0; ic < 4; ++ic) xq[px * 4 + ic] = code(ic, px);
      }
    } else {
      for (std::size_t px = 0; px < in_plane; ++px) {
        for (std::size_t ic = 0; ic < ch; ++ic) xq[px * ch + ic] = code(ic, px);
      }
    }
    unfold_codes(g, xq.data(), codes_.data() + i * plane * kpad, kpad);
  }
}

void Int8Policy::qlinear_rows(const QLinear& ql, std::span<const float> x, std::size_t rows,
                              float* y, Workspace& ws) const {
  // x rows are post-ReLU tensors, so their codes are non-negative — the
  // u8s8 contract.
  const auto in = static_cast<std::size_t>(ql.in);
  const auto out = static_cast<std::size_t>(ql.out);
  ws.xq.resize(rows * in);
  ws.xs.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    ws.xs[r] = quantize_tensor_s8(x.subspan(r * in, in), ws.xq.data() + r * in);
  }
  ws.acc.assign(rows * out, 0);
  igemm_abt_u8s8(static_cast<int>(rows), ql.out, ql.in, ws.xq.data(), ql.w.data(),
                 ws.acc.data());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t o = 0; o < out; ++o) {
      y[r * out + o] = static_cast<float>(ws.acc[r * out + o]) * ws.xs[r] * ql.scale[o] +
                       ql.bias[o];
    }
  }
}

void Int8Policy::forward_chunk(const ScoringBatch& batch, std::size_t first, std::size_t count,
                               Workspace& ws) const {
  // Activations are re-quantized per sample tensor before conv2 and each
  // linear; per-output-channel weight scales dequantize inside each layer.
  // acc [pixels, out_ch] is already the channel-last layout the next layer
  // consumes, so dequant+bias is one contiguous sweep per sample.
  const auto dequant = [&ws](const QConv& qc, const std::int32_t* acc, std::size_t pixels,
                             float x_scale, float* y) {
    const auto oc_n = static_cast<std::size_t>(qc.geom.out_ch);
    ws.deq.resize(oc_n);
    for (std::size_t oc = 0; oc < oc_n; ++oc) ws.deq[oc] = x_scale * qc.scale[oc];
    for (std::size_t p = 0; p < pixels; ++p) {
      for (std::size_t oc = 0; oc < oc_n; ++oc) {
        y[p * oc_n + oc] = static_cast<float>(acc[p * oc_n + oc]) * ws.deq[oc] + qc.bias[oc];
      }
    }
  };

  // conv1: one integer GEMM over the chunk's pixel rows.
  const std::size_t p1 = conv1_.geom.out_plane();
  const std::size_t a1_n = conv1_.geom.out_numel();
  ws.acc.assign(count * a1_n, 0);
  igemm_abt_u8s8(static_cast<int>(count * p1), conv1_.geom.out_ch, conv1_.kpad,
                 batch.codes_.data() + first * p1 * static_cast<std::size_t>(conv1_.kpad),
                 conv1_.w.data(), ws.acc.data());
  ws.a1.resize(count * a1_n);
  dequant(conv1_, ws.acc.data(), count * p1, 1.0f / 127.0f, ws.a1.data());
  relu_forward(ws.a1);

  // conv2: quantize each sample's activations, unfold them channel-last
  // through the gather plan (one in_ch-code copy per valid pixel and tap),
  // then one integer GEMM over the chunk.
  const Conv2d& g2 = conv2_.geom;
  const std::size_t p2 = g2.out_plane();
  const std::size_t kpad2 = static_cast<std::size_t>(conv2_.kpad);
  ws.xq.resize(a1_n);
  ws.xs.resize(count);
  ws.colT.assign(count * p2 * kpad2, 0);
  for (std::size_t i = 0; i < count; ++i) {
    ws.xs[i] = quantize_tensor_s8(std::span<const float>{ws.a1}.subspan(i * a1_n, a1_n),
                                  ws.xq.data());
    unfold_codes(g2, ws.xq.data(), ws.colT.data() + i * p2 * kpad2, kpad2);
  }
  const std::size_t a2_n = g2.out_numel();
  ws.acc.assign(count * a2_n, 0);
  igemm_abt_u8s8(static_cast<int>(count * p2), g2.out_ch, conv2_.kpad, ws.colT.data(),
                 conv2_.w.data(), ws.acc.data());
  ws.a2.resize(count * a2_n);
  for (std::size_t i = 0; i < count; ++i) {
    dequant(conv2_, ws.acc.data() + i * a2_n, p2, ws.xs[i], ws.a2.data() + i * a2_n);
  }
  relu_forward(ws.a2);

  const auto fc_dim = static_cast<std::size_t>(cfg_.fc_dim);
  ws.h.resize(count * fc_dim);
  qlinear_rows(fc_, ws.a2, count, ws.h.data(), ws);
  relu_forward(ws.h);

  // Branch heads, one integer GEMM pair per command group.
  const std::size_t out_dim = 2 * data::kNumWaypoints;
  const auto hidden = static_cast<std::size_t>(cfg_.branch_hidden);
  ws.out.resize(count * out_dim);
  for (std::size_t cmd = 0; cmd < branches_.size(); ++cmd) {
    ws.rows.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (static_cast<std::size_t>(batch.cmds_[first + i]) == cmd) ws.rows.push_back(i);
    }
    if (ws.rows.empty()) continue;
    const std::size_t g = ws.rows.size();
    ws.hg.resize(g * fc_dim);
    ws.bhg.resize(g * hidden);
    ws.og.resize(g * out_dim);
    for (std::size_t k = 0; k < g; ++k) {
      std::copy_n(ws.h.data() + ws.rows[k] * fc_dim, fc_dim, ws.hg.data() + k * fc_dim);
    }
    const QBranch& br = branches_[cmd];
    qlinear_rows(br.hidden, ws.hg, g, ws.bhg.data(), ws);
    relu_forward(ws.bhg);
    qlinear_rows(br.out, ws.bhg, g, ws.og.data(), ws);
    for (std::size_t k = 0; k < g; ++k) {
      std::copy_n(ws.og.data() + k * out_dim, out_dim, ws.out.data() + ws.rows[k] * out_dim);
    }
  }
}

void Int8Policy::sample_losses(const ScoringBatch& batch, std::span<double> out) const {
  if (batch.kpad_ != conv1_.kpad || !(batch.cfg_ == cfg_)) {
    throw std::invalid_argument{"Int8Policy::sample_losses: batch prepared for another model"};
  }
  if (out.size() != batch.size()) {
    throw std::invalid_argument{"Int8Policy::sample_losses: size mismatch"};
  }
  thread_local Workspace ws;
  const std::size_t out_dim = 2 * data::kNumWaypoints;
  for (std::size_t first = 0; first < batch.size(); first += kScoringChunk) {
    const std::size_t count = std::min(kScoringChunk, batch.size() - first);
    forward_chunk(batch, first, count, ws);
    for (std::size_t i = 0; i < count; ++i) {
      out[first + i] = batch.l1_loss(first + i, ws.out.data() + i * out_dim);
    }
  }
}

WaypointVector Int8Policy::predict(const data::BevGrid& bev, Command cmd) const {
  data::Sample s;
  s.bev = bev;
  s.command = cmd;
  const data::Sample* one[1] = {&s};
  thread_local ScoringBatch batch;
  thread_local Workspace ws;
  batch.assign(*this, one);
  forward_chunk(batch, 0, 1, ws);
  WaypointVector out{};
  std::copy_n(ws.out.begin(), out.size(), out.begin());
  return out;
}

double Int8Policy::sample_loss(const data::Sample& s) const {
  const data::Sample* one[1] = {&s};
  double loss = 0.0;
  score_samples(*this, one, {&loss, 1});
  return loss;
}

}  // namespace lbchat::nn
