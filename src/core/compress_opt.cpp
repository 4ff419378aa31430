#include "core/compress_opt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/int8_policy.h"
#include "obs/trace.h"

namespace lbchat::core {

coreset::Coreset subsample_coreset(const coreset::Coreset& c, std::size_t max_n) {
  if (c.size() <= max_n || max_n == 0) return c;
  coreset::Coreset out;
  out.spec = c.spec;
  const double before = c.total_weight();
  const std::size_t stride = (c.size() + max_n - 1) / max_n;
  double kept = 0.0;
  for (std::size_t i = 0; i < c.size(); i += stride) {
    out.samples.push_back(c.samples[i]);
    out.wc.push_back(c.wc[i]);
    kept += c.wc[i];
  }
  // Rescale so the subsample carries the full coreset mass.
  if (kept > 0.0) {
    const double scale = before / kept;
    for (double& w : out.wc) w *= scale;
  }
  return out;
}

double normalized_coreset_loss(const nn::DrivingPolicy& model, const coreset::Coreset& c,
                               const coreset::PenaltyConfig& penalty, ThreadPool* pool) {
  const double mass = c.total_weight();
  if (mass <= 0.0) return 0.0;
  return coreset::evaluate_on_coreset(model, c, penalty, pool) / mass;
}

double normalized_coreset_loss(const nn::Int8Policy& model, const coreset::Coreset& c,
                               const coreset::PenaltyConfig& penalty, ThreadPool* pool) {
  const double mass = c.total_weight();
  if (mass <= 0.0) return 0.0;
  return coreset::evaluate_on_coreset(model, c, penalty, pool) / mass;
}

double normalized_coreset_loss(const nn::DrivingPolicy& model, const coreset::Coreset& c,
                               const nn::ScoringBatch& batch,
                               const coreset::PenaltyConfig& penalty) {
  const double mass = c.total_weight();
  if (mass <= 0.0) return 0.0;
  return coreset::evaluate_on_coreset(model, c, batch, penalty) / mass;
}

double normalized_coreset_loss(const nn::Int8Policy& model, const coreset::Coreset& c,
                               const nn::ScoringBatch& batch,
                               const coreset::PenaltyConfig& penalty) {
  const double mass = c.total_weight();
  if (mass <= 0.0) return 0.0;
  return coreset::evaluate_on_coreset(model, c, batch, penalty) / mass;
}

PhiMapping::PhiMapping(std::vector<double> psis, std::vector<double> losses)
    : psis_(std::move(psis)), losses_(std::move(losses)) {
  if (psis_.size() != losses_.size() || psis_.size() < 2) {
    throw std::invalid_argument{"PhiMapping: need >= 2 (psi, loss) pairs"};
  }
  spline_.emplace(psis_, losses_);
}

PhiMapping PhiMapping::build(const nn::DrivingPolicy& model, const coreset::Coreset& c,
                             const coreset::PenaltyConfig& penalty, std::span<const double> psis,
                             std::size_t eval_cap, bool int8_eval) {
  const coreset::Coreset sub = subsample_coreset(c, eval_cap);
  if (!int8_eval) return build(model, sub, nn::ScoringBatch{model, sub.samples}, penalty, psis);
  // The int8 panel needs only the snapshot's shape, which every psi shares.
  return build(model, sub, nn::ScoringBatch{nn::Int8Policy{model}, sub.samples}, penalty, psis);
}

PhiMapping PhiMapping::build(const nn::DrivingPolicy& model, const coreset::Coreset& sub,
                             const nn::ScoringBatch& batch, const coreset::PenaltyConfig& penalty,
                             std::span<const double> psis) {
  LBCHAT_OBS_SPAN("core.phi_build");
  const std::span<const float> params = model.params();
  // One magnitude ranking serves every psi; each compressed model is written
  // straight into the scratch copy, whose parameters it fully overwrites.
  nn::MagnitudeRanking ranking{params};
  nn::DrivingPolicy compressed = model;
  std::vector<double> xs(psis.begin(), psis.end());
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (const double psi : xs) {
    nn::write_top_k_dense(params, nn::top_k_for_psi(psi, params.size()), ranking,
                          compressed.params());
    ys.push_back(batch.int8()
                     ? normalized_coreset_loss(nn::Int8Policy{compressed}, sub, batch, penalty)
                     : normalized_coreset_loss(compressed, sub, batch, penalty));
  }
  return PhiMapping{std::move(xs), std::move(ys)};
}

double PhiMapping::operator()(double psi) const {
  if (!spline_.has_value()) throw std::logic_error{"PhiMapping: empty"};
  if (psi <= psis_.front()) {
    // psi below the sampled range: the model is (nearly) not transmitted;
    // report the worst sampled loss as a conservative sentinel.
    return *std::max_element(losses_.begin(), losses_.end());
  }
  const double clamped = std::min(psi, psis_.back());
  return (*spline_)(clamped);
}

double exchange_gain(double receiver_loss_on_sender_coreset, const PhiMapping& sender_phi,
                     double psi) {
  if (psi <= 0.0) return 0.0;  // nothing transmitted, nothing gained
  // A compressed model is never assessed as MORE valuable than its
  // uncompressed original. Without this clamp, a barely-trained model whose
  // top-k pruning shrinks its (random) outputs toward zero can measure a
  // *lower* coreset loss than the original — predicting zero waypoints is a
  // local loss attractor — and the fleet then floods itself with near-zero
  // models and collapses onto that attractor.
  const double predicted = std::max(sender_phi(psi), sender_phi(1.0));
  return std::max(receiver_loss_on_sender_coreset - predicted, 0.0);
}

CompressionDecision optimize_compression(const CompressionProblem& p, int grid) {
  if (grid < 1) throw std::invalid_argument{"optimize_compression: grid < 1"};
  if (p.bandwidth_bps <= 0.0 || p.model_bytes < 0.0) {
    throw std::invalid_argument{"optimize_compression: bad link parameters"};
  }
  const double window = std::min(p.time_budget_s, p.contact_s);
  const double seconds_per_psi = p.model_bytes * 8.0 / p.bandwidth_bps;

  CompressionDecision best;
  best.objective = p.lambda_c * window;  // the (0, 0) point: full award, no gain
  best.exchange_time_s = 0.0;

  for (int gi = 0; gi <= grid; ++gi) {
    const double psi_i = static_cast<double>(gi) / grid;
    const double t_i = psi_i * seconds_per_psi;
    if (t_i > window + 1e-12) break;  // larger psi_i only worse
    const double gain_j = exchange_gain(p.loss_j_on_ci, p.phi_i, psi_i);
    for (int gj = 0; gj <= grid; ++gj) {
      const double psi_j = static_cast<double>(gj) / grid;
      const double t_c = t_i + psi_j * seconds_per_psi;
      if (t_c > window + 1e-12) break;
      const double gain_i = exchange_gain(p.loss_i_on_cj, p.phi_j, psi_j);
      const double obj = gain_i + gain_j + p.lambda_c * (window - t_c);
      if (obj > best.objective + 1e-15) {
        best.objective = obj;
        best.psi_i = psi_i;
        best.psi_j = psi_j;
        best.exchange_time_s = t_c;
        best.gain_to_i = gain_i;
        best.gain_to_j = gain_j;
      }
    }
  }
  return best;
}

}  // namespace lbchat::core
