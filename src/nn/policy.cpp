#include "nn/policy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.h"
#include "nn/int8_policy.h"
#include "obs/trace.h"

namespace lbchat::nn {

using data::Command;
using data::kNumCommands;

namespace {

/// Where each command's rows start once grouped; the last entry is n.
using CommandGroups = std::array<std::size_t, kNumCommands + 1>;

/// Stable counting sort of rows [0, n) by command: `order` lists them
/// group by group, ascending within a group, and command c's rows are
/// order[begin[c], begin[c + 1]).
template <class CmdOf>
void group_by_command(std::size_t n, CmdOf cmd_of, std::vector<std::size_t>& order,
                      CommandGroups& begin) {
  begin.fill(0);
  for (std::size_t i = 0; i < n; ++i) ++begin[static_cast<std::size_t>(cmd_of(i)) + 1];
  for (std::size_t c = 0; c < kNumCommands; ++c) begin[c + 1] += begin[c];
  CommandGroups next = begin;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[next[static_cast<std::size_t>(cmd_of(i))]++] = i;
}

/// dst row r = src row order[r], rows of `width` floats.
void gather_rows(const float* src, std::span<const std::size_t> order, std::size_t width,
                 float* dst) {
  for (std::size_t r = 0; r < order.size(); ++r) {
    std::copy_n(src + order[r] * width, width, dst + r * width);
  }
}

/// dst row order[r] = src row r: gather_rows' inverse.
void scatter_rows(const float* src, std::span<const std::size_t> order, std::size_t width,
                  float* dst) {
  for (std::size_t r = 0; r < order.size(); ++r) {
    std::copy_n(src + r * width, width, dst + order[r] * width);
  }
}

}  // namespace

struct DrivingPolicy::Workspace {
  int batch = 0;
  std::vector<float> a1;       // conv1 post-ReLU
  std::vector<float> a2;       // conv2 post-ReLU (== flattened input to fc)
  std::vector<float> h;        // fc post-ReLU [B, fc_dim]
  std::vector<float> out;      // [B, out_dim]
  // The branch heads run once per command group (group_by_command); the
  // head tensors below hold their rows in that grouped order.
  std::vector<std::size_t> order;
  CommandGroups group_begin{};
  std::vector<float> hg;       // h rows, grouped [B, fc_dim]
  std::vector<float> bh;       // branch hidden post-ReLU, grouped [B, branch_hidden]
  std::vector<float> og;       // head outputs, grouped [B, out_dim]
  // gradients (same shapes)
  std::vector<float> g_out, g_og, g_bh, g_hg, g_h, g_a2, g_a1;
  // Each conv's columns as its forward left them ([B][col_rows][out_plane]);
  // the backward reads them in place of the inputs. Resized to the need
  // once, then reused — no per-call allocation on the training hot path.
  std::vector<float> col1, col2, gcol;
};

/// Scoring scratch for one chunk of c samples. Conv activations are kept
/// channel-major across the chunk ([ch][c*out_plane]), the layout the
/// chunk-wide GEMMs produce.
struct DrivingPolicy::ScoreWorkspace {
  std::vector<float> a1, col2, a2;
  std::vector<float> flat;  // conv2 output regrouped per sample [c, out_numel]
  std::vector<float> h;     // [c, fc_dim]
  std::vector<float> out;   // [c, out_dim]
  // The chunk's rows grouped by command for the branch heads.
  std::vector<std::size_t> order;
  CommandGroups group_begin{};
  std::vector<float> hg, bh, og;
};

DrivingPolicy::DrivingPolicy(const PolicyConfig& cfg, std::uint64_t init_seed) : cfg_(cfg) {
  Rng init{init_seed};
  Rng r1 = init.fork("conv1");
  Rng r2 = init.fork("conv2");
  Rng r3 = init.fork("fc");
  conv1_ = Conv2d(store_, cfg.bev.channels, cfg.conv1_channels, cfg.bev.height, cfg.bev.width,
                  /*kernel=*/3, /*stride=*/2, /*pad=*/1, r1);
  conv2_ = Conv2d(store_, cfg.conv1_channels, cfg.conv2_channels, conv1_.out_h, conv1_.out_w,
                  /*kernel=*/3, /*stride=*/2, /*pad=*/1, r2);
  const int flat = static_cast<int>(conv2_.out_numel());
  fc_ = Linear(store_, flat, cfg.fc_dim, r3);
  branches_.reserve(kNumCommands);
  for (int b = 0; b < kNumCommands; ++b) {
    Rng rb = init.fork(hash_name("branch") + static_cast<std::uint64_t>(b));
    Branch br;
    br.hidden = Linear(store_, cfg.fc_dim, cfg.branch_hidden, rb);
    br.out = Linear(store_, cfg.branch_hidden, 2 * data::kNumWaypoints, rb);
    branches_.push_back(br);
  }
}

void DrivingPolicy::set_params(std::span<const float> p) {
  if (p.size() != store_.size()) throw std::invalid_argument{"set_params: size mismatch"};
  std::copy(p.begin(), p.end(), store_.params().begin());
}

void ScoringBatch::assign_labels(const PolicyConfig& cfg,
                                 std::span<const data::Sample* const> samples, int kpad) {
  const std::size_t bytes = data::bev_bytes(cfg.bev);
  cfg_ = cfg;
  kpad_ = kpad;
  cmds_.resize(samples.size());
  targets_.resize(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i]->bev.bits.size() != bytes) {
      throw std::invalid_argument{"ScoringBatch: BEV size mismatch"};
    }
    cmds_[i] = samples[i]->command;
    targets_[i] = samples[i]->waypoints;
  }
}

ScoringBatch::ScoringBatch(const DrivingPolicy& model, std::span<const data::Sample> samples) {
  std::vector<const data::Sample*> ptrs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) ptrs[i] = &samples[i];
  assign(model, ptrs);
}

void ScoringBatch::assign(const DrivingPolicy& model,
                          std::span<const data::Sample* const> samples) {
  assign_labels(model.cfg_, samples, /*kpad=*/0);
  codes_.clear();
  const Conv2d& cv = model.conv1_;
  const std::size_t plane = cv.out_plane();
  const std::size_t block = kScoringChunk * static_cast<std::size_t>(cv.col_rows()) * plane;
  cols_.resize(samples.size() * static_cast<std::size_t>(cv.col_rows()) * plane);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t first = i / kScoringChunk * kScoringChunk;
    const std::size_t c = std::min(kScoringChunk, samples.size() - first);
    float* base = cols_.data() + first / kScoringChunk * block;
    cv.unfold(samples[i]->bev.bits.data(), base + (i - first) * plane, c * plane);
  }
}

void DrivingPolicy::forward(std::span<const data::Sample* const> batch, Workspace& ws) const {
  const int out_dim = 2 * data::kNumWaypoints;
  const int B = static_cast<int>(batch.size());
  const auto n = static_cast<std::size_t>(B);
  ws.batch = B;
  ws.a1.assign(n * conv1_.out_numel(), 0.0f);
  ws.a2.assign(n * conv2_.out_numel(), 0.0f);
  ws.h.assign(n * static_cast<std::size_t>(cfg_.fc_dim), 0.0f);
  ws.out.assign(n * static_cast<std::size_t>(out_dim), 0.0f);

  // conv1 unfolds straight from the BEV bits; its columns stay in ws.col1
  // as the backward's stand-in for the raster.
  const std::size_t per_sample = static_cast<std::size_t>(conv1_.col_rows()) * conv1_.out_plane();
  ws.col1.resize(n * per_sample);
  {
    LBCHAT_OBS_SPAN("nn.conv2d_fwd");
    for (std::size_t i = 0; i < n; ++i) {
      const auto& bits = batch[i]->bev.bits;
      if (bits.size() != data::bev_bytes(cfg_.bev)) {
        throw std::invalid_argument{"DrivingPolicy: BEV size mismatch"};
      }
      float* col = ws.col1.data() + i * per_sample;
      conv1_.unfold(bits.data(), col, conv1_.out_plane());
      conv1_.gemm_forward(store_, col, conv1_.out_plane(), ws.a1.data() + i * conv1_.out_numel());
    }
  }
  relu_forward(ws.a1);
  conv2_.forward(store_, ws.a1, ws.a2, B, ws.col2);
  relu_forward(ws.a2);
  fc_.forward(store_, ws.a2, ws.h, B);
  relu_forward(ws.h);

  // Branch routing: each sample goes through the head of its command.
  const auto fc_dim = static_cast<std::size_t>(cfg_.fc_dim);
  group_by_command(n, [&](std::size_t i) { return batch[i]->command; }, ws.order,
                   ws.group_begin);
  ws.hg.resize(n * fc_dim);
  ws.bh.resize(n * static_cast<std::size_t>(cfg_.branch_hidden));
  ws.og.resize(ws.out.size());
  gather_rows(ws.h.data(), ws.order, fc_dim, ws.hg.data());
  heads_forward(ws.group_begin, ws.hg, ws.bh, ws.og);
  scatter_rows(ws.og.data(), ws.order, static_cast<std::size_t>(out_dim), ws.out.data());
}

void DrivingPolicy::heads_forward(std::span<const std::size_t> group_begin,
                                  std::span<const float> hg, std::span<float> bh,
                                  std::span<float> og) const {
  // A head's rows do not depend on how many share the call (sgemm_abt
  // gives each output its own dot), so this equals a one-sample pass per
  // sample.
  const auto fc_dim = static_cast<std::size_t>(cfg_.fc_dim);
  const auto hidden = static_cast<std::size_t>(cfg_.branch_hidden);
  const std::size_t out_dim = 2 * data::kNumWaypoints;
  for (std::size_t cmd = 0; cmd < branches_.size(); ++cmd) {
    const std::size_t first = group_begin[cmd];
    const std::size_t g = group_begin[cmd + 1] - first;
    if (g == 0) continue;
    const Branch& br = branches_[cmd];
    const auto bh_g = bh.subspan(first * hidden, g * hidden);
    br.hidden.forward(store_, hg.subspan(first * fc_dim, g * fc_dim), bh_g, static_cast<int>(g));
    relu_forward(bh_g);
    br.out.forward(store_, bh_g, og.subspan(first * out_dim, g * out_dim), static_cast<int>(g));
  }
}

void DrivingPolicy::forward_chunk(const ScoringBatch& batch, std::size_t first, std::size_t count,
                                  ScoreWorkspace& ws) const {
  // Bit-identity with a one-sample pass: the conv GEMMs compute each column
  // of C, and the linear GEMMs each row, independently of how many other
  // columns/rows share the call (DESIGN.md §7), so packing a chunk's pixels
  // (or samples) into one call changes no value.
  const std::size_t p1 = conv1_.out_plane();
  const std::size_t p2 = conv2_.out_plane();
  const std::size_t n1 = count * p1;
  const std::size_t n2 = count * p2;
  ws.a1.resize(static_cast<std::size_t>(conv1_.out_ch) * n1);
  conv1_.gemm_forward(store_,
                      batch.cols_.data() + first * static_cast<std::size_t>(conv1_.col_rows()) * p1,
                      n1, ws.a1.data());
  relu_forward(ws.a1);

  // conv2 unfolds each sample out of the channel-major chunk activations.
  ws.col2.resize(static_cast<std::size_t>(conv2_.col_rows()) * n2);
  for (std::size_t i = 0; i < count; ++i) {
    conv2_.unfold(ws.a1.data() + i * p1, n1, ws.col2.data() + i * p2, n2);
  }
  ws.a2.resize(static_cast<std::size_t>(conv2_.out_ch) * n2);
  conv2_.gemm_forward(store_, ws.col2.data(), n2, ws.a2.data());
  relu_forward(ws.a2);

  // Regroup [oc][sample][pixel] into the per-sample flatten fc expects.
  const std::size_t flat_n = conv2_.out_numel();
  ws.flat.resize(count * flat_n);
  for (int oc = 0; oc < conv2_.out_ch; ++oc) {
    for (std::size_t i = 0; i < count; ++i) {
      std::copy_n(ws.a2.data() + static_cast<std::size_t>(oc) * n2 + i * p2, p2,
                  ws.flat.data() + i * flat_n + static_cast<std::size_t>(oc) * p2);
    }
  }
  const auto fc_dim = static_cast<std::size_t>(cfg_.fc_dim);
  ws.h.resize(count * fc_dim);
  fc_.forward(store_, ws.flat, ws.h, static_cast<int>(count));
  relu_forward(ws.h);

  // Branch heads, one GEMM pair per command group.
  const std::size_t out_dim = 2 * data::kNumWaypoints;
  group_by_command(count, [&](std::size_t i) { return batch.cmds_[first + i]; }, ws.order,
                   ws.group_begin);
  ws.hg.resize(count * fc_dim);
  ws.bh.resize(count * static_cast<std::size_t>(cfg_.branch_hidden));
  ws.og.resize(count * out_dim);
  ws.out.resize(count * out_dim);
  gather_rows(ws.h.data(), ws.order, fc_dim, ws.hg.data());
  heads_forward(ws.group_begin, ws.hg, ws.bh, ws.og);
  scatter_rows(ws.og.data(), ws.order, out_dim, ws.out.data());
}

double ScoringBatch::l1_loss(std::size_t i, const float* pred) const {
  const WaypointVector& target = targets_[i];
  double loss = 0.0;
  for (std::size_t k = 0; k < target.size(); ++k) {
    loss += std::abs(static_cast<double>(pred[k]) - static_cast<double>(target[k]));
  }
  return loss / static_cast<double>(target.size());
}

void DrivingPolicy::sample_losses(const ScoringBatch& batch, std::span<double> out) const {
  if (batch.int8() || !(batch.cfg_ == cfg_)) {
    throw std::invalid_argument{"sample_losses: batch prepared for another model"};
  }
  if (out.size() != batch.size()) throw std::invalid_argument{"sample_losses: size mismatch"};
  thread_local ScoreWorkspace ws;
  const std::size_t out_dim = 2 * data::kNumWaypoints;
  for (std::size_t first = 0; first < batch.size(); first += kScoringChunk) {
    const std::size_t count = std::min(kScoringChunk, batch.size() - first);
    forward_chunk(batch, first, count, ws);
    for (std::size_t i = 0; i < count; ++i) {
      out[first + i] = batch.l1_loss(first + i, ws.out.data() + i * out_dim);
    }
  }
}

WaypointVector DrivingPolicy::predict(const data::BevGrid& bev, Command cmd) const {
  data::Sample s;
  s.bev = bev;
  s.command = cmd;
  const data::Sample* one[1] = {&s};
  thread_local ScoringBatch batch;
  thread_local ScoreWorkspace ws;
  batch.assign(*this, one);
  forward_chunk(batch, 0, 1, ws);
  WaypointVector out{};
  std::copy_n(ws.out.begin(), out.size(), out.begin());
  return out;
}

double DrivingPolicy::sample_loss(const data::Sample& s) const {
  const data::Sample* one[1] = {&s};
  double loss = 0.0;
  score_samples(*this, one, {&loss, 1});
  return loss;
}

namespace {

/// Weighted mean of per-sample losses over the positively weighted ones
/// (empty weights = uniform): the reduction behind every weighted_loss.
double weighted_mean_loss(std::span<const double> losses, std::span<const double> weights) {
  if (!weights.empty() && weights.size() != losses.size()) {
    throw std::invalid_argument{"weighted_loss: weights size mismatch"};
  }
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    if (w <= 0.0) continue;
    num += w * losses[i];
    den += w;
  }
  return den > 0.0 ? num / den : 0.0;
}

/// Losses of the positively weighted samples (the rest stay 0, and the
/// weighted mean never reads them).
template <class Model>
std::vector<double> positive_weight_losses(const Model& model,
                                           std::span<const data::Sample> samples,
                                           std::span<const double> weights) {
  if (!weights.empty() && weights.size() != samples.size()) {
    throw std::invalid_argument{"weighted_loss: weights size mismatch"};
  }
  std::vector<const data::Sample*> picked;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!weights.empty() && weights[i] <= 0.0) continue;
    picked.push_back(&samples[i]);
    slot.push_back(i);
  }
  std::vector<double> scored(picked.size());
  score_samples(model, picked, scored);
  std::vector<double> losses(samples.size(), 0.0);
  for (std::size_t k = 0; k < slot.size(); ++k) losses[slot[k]] = scored[k];
  return losses;
}

}  // namespace

// Both flavours share the chunked sweep; the int8 forward pass lives in
// int8_policy.cpp.
template <ScoringModel Model>
void score_samples(const Model& model, std::span<const data::Sample* const> samples,
                   std::span<double> out, ThreadPool* pool) {
  if (out.size() != samples.size()) throw std::invalid_argument{"score_samples: size mismatch"};
  const auto chunks =
      static_cast<std::int64_t>((samples.size() + kScoringChunk - 1) / kScoringChunk);
  parallel_for(pool, 0, chunks, [&](std::int64_t b) {
    const std::size_t first = static_cast<std::size_t>(b) * kScoringChunk;
    const std::size_t count = std::min(kScoringChunk, samples.size() - first);
    thread_local ScoringBatch batch;
    batch.assign(model, samples.subspan(first, count));
    model.sample_losses(batch, out.subspan(first, count));
  });
}
template void score_samples(const DrivingPolicy&, std::span<const data::Sample* const>,
                            std::span<double>, ThreadPool*);
template void score_samples(const Int8Policy&, std::span<const data::Sample* const>,
                            std::span<double>, ThreadPool*);

double DrivingPolicy::weighted_loss(std::span<const data::Sample> samples,
                                    std::span<const double> weights) const {
  LBCHAT_OBS_SPAN("nn.weighted_loss");
  if (samples.empty()) return 0.0;
  return weighted_mean_loss(positive_weight_losses(*this, samples, weights), weights);
}

double DrivingPolicy::weighted_loss(const ScoringBatch& batch,
                                    std::span<const double> weights) const {
  LBCHAT_OBS_SPAN("nn.weighted_loss");
  std::vector<double> losses(batch.size());
  sample_losses(batch, losses);
  return weighted_mean_loss(losses, weights);
}

double Int8Policy::weighted_loss(std::span<const data::Sample> samples,
                                 std::span<const double> weights) const {
  if (samples.empty()) return 0.0;
  return weighted_mean_loss(positive_weight_losses(*this, samples, weights), weights);
}

double DrivingPolicy::train_batch(std::span<const data::Sample* const> batch, Optimizer& opt) {
  LBCHAT_OBS_SPAN("nn.train_batch");
  const double loss = compute_batch_gradient(batch);
  if (!batch.empty()) opt.step(store_.params(), store_.grads());
  return loss;
}

double DrivingPolicy::compute_batch_gradient(std::span<const data::Sample* const> batch) {
  if (batch.empty()) return 0.0;
  const int B = static_cast<int>(batch.size());
  const int out_dim = 2 * data::kNumWaypoints;

  thread_local Workspace ws;
  forward(batch, ws);

  // L1 loss and its gradient. Per-sample loss is the mean abs error over
  // the out_dim coordinates; the batch loss is the mean over samples.
  double loss = 0.0;
  ws.g_out.assign(ws.out.size(), 0.0f);
  const float gscale = 1.0f / (static_cast<float>(B) * static_cast<float>(out_dim));
  for (int n = 0; n < B; ++n) {
    for (int k = 0; k < out_dim; ++k) {
      const std::size_t i = static_cast<std::size_t>(n) * out_dim + k;
      const float diff = ws.out[i] - batch[static_cast<std::size_t>(n)]->waypoints[
                                         static_cast<std::size_t>(k)];
      loss += std::abs(static_cast<double>(diff));
      ws.g_out[i] = (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f)) * gscale;
    }
  }
  loss /= static_cast<double>(B) * out_dim;

  // Backward. The heads run per command group, in the forward's grouped
  // row order. Each weight-gradient element takes its samples' terms in
  // ascending sample order, one rounding each, exactly as one-sample calls
  // would add them, and each input-gradient row is its own sum; so the
  // grouped calls change no bit.
  store_.zero_grads();
  const auto fc_dim = static_cast<std::size_t>(cfg_.fc_dim);
  const auto hidden = static_cast<std::size_t>(cfg_.branch_hidden);
  const auto od = static_cast<std::size_t>(out_dim);
  ws.g_og.resize(ws.g_out.size());
  gather_rows(ws.g_out.data(), ws.order, od, ws.g_og.data());
  ws.g_bh.assign(ws.bh.size(), 0.0f);
  ws.g_hg.assign(ws.hg.size(), 0.0f);
  for (std::size_t cmd = 0; cmd < branches_.size(); ++cmd) {
    const std::size_t first = ws.group_begin[cmd];
    const std::size_t g = ws.group_begin[cmd + 1] - first;
    if (g == 0) continue;
    const Branch& br = branches_[cmd];
    const auto bh_g = std::span<const float>{ws.bh}.subspan(first * hidden, g * hidden);
    const auto g_bh_g = std::span<float>{ws.g_bh}.subspan(first * hidden, g * hidden);
    br.out.backward(store_, bh_g, std::span<const float>{ws.g_og}.subspan(first * od, g * od),
                    g_bh_g, static_cast<int>(g));
    relu_backward(bh_g, g_bh_g);
    br.hidden.backward(store_, std::span<const float>{ws.hg}.subspan(first * fc_dim, g * fc_dim),
                       g_bh_g, std::span<float>{ws.g_hg}.subspan(first * fc_dim, g * fc_dim),
                       static_cast<int>(g));
  }
  ws.g_h.resize(ws.h.size());
  scatter_rows(ws.g_hg.data(), ws.order, fc_dim, ws.g_h.data());
  ws.g_a2.assign(ws.a2.size(), 0.0f);
  ws.g_a1.assign(ws.a1.size(), 0.0f);
  relu_backward(ws.h, ws.g_h);
  fc_.backward(store_, ws.a2, ws.g_h, ws.g_a2, B);
  relu_backward(ws.a2, ws.g_a2);
  conv2_.backward(store_, ws.col2, ws.g_a2, ws.g_a1, B, ws.gcol);
  relu_backward(ws.a1, ws.g_a1);
  conv1_.backward(store_, ws.col1, ws.g_a1, /*gx=*/{}, B, ws.gcol);
  return loss;
}

double param_l2_norm(std::span<const float> params) {
  double s = 0.0;
  for (const float v : params) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

double DrivingPolicy::param_l2_norm() const { return nn::param_l2_norm(params()); }

}  // namespace lbchat::nn
