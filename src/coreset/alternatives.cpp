#include "coreset/alternatives.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace lbchat::coreset {

std::string_view coreset_method_name(CoresetMethod method) {
  switch (method) {
    case CoresetMethod::kLayered: return "layered";
    case CoresetMethod::kUniform: return "uniform";
    case CoresetMethod::kSensitivity: return "sensitivity";
    case CoresetMethod::kClustering: return "clustering";
  }
  return "?";
}

namespace {

Coreset whole_dataset_as_coreset(const data::WeightedDataset& dataset) {
  Coreset out;
  out.spec = dataset.spec();
  out.samples = dataset.samples();
  out.wc.reserve(dataset.size());
  for (const auto& s : out.samples) out.wc.push_back(s.weight);
  return out;
}

/// Every dataset sample's loss, scored chunk by chunk (nn::score_samples).
std::vector<double> dataset_losses(const data::WeightedDataset& dataset,
                                   const nn::DrivingPolicy& model) {
  std::vector<const data::Sample*> ptrs(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) ptrs[i] = &dataset[i];
  std::vector<double> losses(dataset.size());
  nn::score_samples(model, ptrs, losses);
  return losses;
}

}  // namespace

Coreset build_uniform_coreset(const data::WeightedDataset& dataset, const CoresetConfig& cfg,
                              Rng& rng) {
  Coreset out;
  out.spec = dataset.spec();
  if (dataset.empty() || cfg.target_size == 0) return out;
  if (cfg.target_size >= dataset.size()) return whole_dataset_as_coreset(dataset);

  std::vector<double> weights(dataset.size());
  double mass = 0.0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    weights[i] = std::max(dataset[i].weight, 0.0);
    mass += weights[i];
  }
  const auto picked = rng.weighted_sample_without_replacement(weights, cfg.target_size);
  double selected = 0.0;
  for (const auto i : picked) selected += weights[i];
  const double scale = selected > 0.0 ? mass / selected : 1.0;
  for (const auto i : picked) {
    out.samples.push_back(dataset[i]);
    out.wc.push_back(weights[i] * scale);
  }
  return out;
}

Coreset build_sensitivity_coreset(const data::WeightedDataset& dataset,
                                  const nn::DrivingPolicy& model, const CoresetConfig& cfg,
                                  Rng& rng) {
  Coreset out;
  out.spec = dataset.spec();
  if (dataset.empty() || cfg.target_size == 0) return out;
  if (cfg.target_size >= dataset.size()) return whole_dataset_as_coreset(dataset);

  // Importance ~ w(d) * (loss(d) + eps): the per-sample contribution to the
  // weighted objective. w_C uses inverse importance so the estimator stays
  // unbiased for f(x; D) at the construction model.
  const double eps = 1e-3;
  const std::vector<double> losses = dataset_losses(dataset, model);
  std::vector<double> importance(dataset.size());
  double dataset_mass = 0.0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    importance[i] = std::max(dataset[i].weight, 0.0) * (losses[i] + eps);
    dataset_mass += std::max(dataset[i].weight, 0.0);
  }
  double total_importance = 0.0;
  for (const double v : importance) total_importance += v;
  if (total_importance <= 0.0) return build_uniform_coreset(dataset, cfg, rng);

  const auto picked = rng.weighted_sample_without_replacement(importance, cfg.target_size);
  // Inverse-probability weighting, then rescale so the coreset carries the
  // dataset's full weight mass (keeps f(x; C) on the f(x; D) scale).
  double mass = 0.0;
  std::vector<double> raw(picked.size());
  for (std::size_t k = 0; k < picked.size(); ++k) {
    const auto i = picked[k];
    raw[k] = std::max(dataset[i].weight, 0.0) * total_importance /
             (static_cast<double>(picked.size()) * importance[i]);
    mass += raw[k];
  }
  const double scale = mass > 0.0 ? dataset_mass / mass : 1.0;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    out.samples.push_back(dataset[picked[k]]);
    out.wc.push_back(raw[k] * scale);
  }
  return out;
}

Coreset build_clustering_coreset(const data::WeightedDataset& dataset,
                                 const nn::DrivingPolicy& model, const CoresetConfig& cfg,
                                 Rng& rng) {
  Coreset out;
  out.spec = dataset.spec();
  if (dataset.empty() || cfg.target_size == 0) return out;
  if (cfg.target_size >= dataset.size()) return whole_dataset_as_coreset(dataset);

  const std::size_t n = dataset.size();
  const std::vector<double> losses = dataset_losses(dataset, model);

  // Greedy k-centre in loss space: start from a random sample, repeatedly add
  // the sample farthest from its nearest centre.
  std::vector<std::size_t> centres;
  centres.push_back(rng.uniform_index(n));
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  while (centres.size() < cfg.target_size) {
    const double c_loss = losses[centres.back()];
    std::size_t farthest = 0;
    double far_d = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], std::abs(losses[i] - c_loss));
      if (nearest[i] > far_d) {
        far_d = nearest[i];
        farthest = i;
      }
    }
    if (far_d <= 0.0) break;  // all remaining samples coincide with a centre
    centres.push_back(farthest);
  }

  // Assign every sample to its nearest centre; centres carry cluster mass.
  std::vector<double> cluster_mass(centres.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < centres.size(); ++c) {
      const double d = std::abs(losses[i] - losses[centres[c]]);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    cluster_mass[best] += std::max(dataset[i].weight, 0.0);
  }
  for (std::size_t c = 0; c < centres.size(); ++c) {
    out.samples.push_back(dataset[centres[c]]);
    out.wc.push_back(cluster_mass[c]);
  }
  return out;
}

Coreset build_coreset(CoresetMethod method, const data::WeightedDataset& dataset,
                      const nn::DrivingPolicy& model, const CoresetConfig& cfg, Rng& rng,
                      ThreadPool* pool) {
  LBCHAT_OBS_SPAN("coreset.build");
  switch (method) {
    case CoresetMethod::kLayered:
      return build_layered_coreset(dataset, model, cfg, rng, pool);
    case CoresetMethod::kUniform:
      return build_uniform_coreset(dataset, cfg, rng);
    case CoresetMethod::kSensitivity:
      return build_sensitivity_coreset(dataset, model, cfg, rng);
    case CoresetMethod::kClustering:
      return build_clustering_coreset(dataset, model, cfg, rng);
  }
  throw std::invalid_argument{"build_coreset: unknown method"};
}

}  // namespace lbchat::coreset
