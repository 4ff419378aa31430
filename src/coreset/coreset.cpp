#include "coreset/coreset.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/stats.h"
#include "nn/int8_policy.h"

namespace lbchat::coreset {

using data::Sample;
using data::WeightedDataset;

namespace {

/// ||x|| of Eq. (6) for either model flavour: float parameters directly, or
/// the dequantized norm the int8 snapshot actually represents.
double model_param_norm(const nn::DrivingPolicy& model) {
  return nn::param_l2_norm(model.params());
}
double model_param_norm(const nn::Int8Policy& model) { return model.param_l2_norm(); }

/// w(d) of sample i: the explicit weight when given, else the sample's own.
double weight_of(std::span<const Sample> samples, std::span<const double> weights, std::size_t i) {
  return weights.empty() ? samples[i].weight : weights[i];
}

/// sample_loss of every sample `wanted(i)` selects (the rest stay 0), each
/// written to its own slot. The selected samples are scored chunk by chunk
/// (nn::score_samples), on the pool's lanes when one is given.
template <class Model, class Wanted>
std::vector<double> sample_losses(const Model& model, std::span<const Sample> samples,
                                  ThreadPool* pool, Wanted wanted) {
  std::vector<const Sample*> picked;
  std::vector<std::size_t> slot;
  picked.reserve(samples.size());
  slot.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!wanted(i)) continue;
    picked.push_back(&samples[i]);
    slot.push_back(i);
  }
  std::vector<double> scored(picked.size());
  nn::score_samples(model, picked, scored, pool);
  std::vector<double> losses(samples.size(), 0.0);
  for (std::size_t k = 0; k < slot.size(); ++k) losses[slot[k]] = scored[k];
  return losses;
}

/// sample_loss of every positively weighted sample, the only ones Eq. (6)
/// reads (the rest stay 0). Both Eq. (6) terms reduce over these, so each
/// sample costs one forward pass.
template <class Model>
std::vector<double> weighted_sample_losses(const Model& model, std::span<const Sample> samples,
                                           std::span<const double> weights,
                                           ThreadPool* pool = nullptr) {
  return sample_losses(model, samples, pool,
                       [&](std::size_t i) { return weight_of(samples, weights, i) > 0.0; });
}

/// sigma(x) from per-sample losses (weights already validated).
double command_balance_from_losses(std::span<const Sample> samples,
                                   std::span<const double> weights,
                                   std::span<const double> losses) {
  std::array<double, data::kNumCommands> loss_mass{};
  std::array<double, data::kNumCommands> weight_mass{};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double w = weight_of(samples, weights, i);
    if (w <= 0.0) continue;
    const auto c = static_cast<std::size_t>(samples[i].command);
    loss_mass[c] += w * losses[i];
    weight_mass[c] += w;
  }
  // Mean loss per command, over commands actually present.
  std::vector<double> per_command;
  per_command.reserve(data::kNumCommands);
  for (std::size_t c = 0; c < data::kNumCommands; ++c) {
    if (weight_mass[c] > 0.0) per_command.push_back(loss_mass[c] / weight_mass[c]);
  }
  if (per_command.size() < 2) return 0.0;
  double total = 0.0;
  for (const double v : per_command) total += v;
  // All commands at (near-)zero loss is the perfectly balanced state.
  if (total < 1e-12) return 0.0;
  const double max_h = std::log(static_cast<double>(per_command.size()));
  return max_h - entropy(per_command);
}

/// Shared bodies: the float and int8 policies expose the same sample_loss
/// surface, so the Eq. (6) reductions are written once and instantiated for
/// both (identical summation order — the int8 overloads differ only in what
/// sample_loss computes).
template <class Model>
double command_balance_penalty_impl(const Model& model, std::span<const Sample> samples,
                                    std::span<const double> weights) {
  if (samples.empty()) return 0.0;
  if (!weights.empty() && weights.size() != samples.size()) {
    throw std::invalid_argument{"command_balance_penalty: weights size mismatch"};
  }
  return command_balance_from_losses(samples, weights,
                                     weighted_sample_losses(model, samples, weights));
}

/// Eq. (6) from per-sample losses (weights already validated; losses of
/// non-positively weighted samples are never read).
template <class Model>
double penalized_from_losses(const Model& model, std::span<const Sample> samples,
                             std::span<const double> weights, const PenaltyConfig& penalty,
                             std::span<const double> losses) {
  double empirical = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double w = weight_of(samples, weights, i);
    if (w <= 0.0) continue;
    empirical += w * losses[i];
  }
  return empirical + penalty.lambda1 * model_param_norm(model) +
         penalty.lambda2 * command_balance_from_losses(samples, weights, losses);
}

template <class Model>
double penalized_loss_impl(const Model& model, std::span<const Sample> samples,
                           std::span<const double> weights, const PenaltyConfig& penalty,
                           ThreadPool* pool) {
  if (!weights.empty() && weights.size() != samples.size()) {
    throw std::invalid_argument{"penalized_loss: weights size mismatch"};
  }
  return penalized_from_losses(model, samples, weights, penalty,
                               weighted_sample_losses(model, samples, weights, pool));
}

/// evaluate_on_coreset over a batch prepared from c's samples: every sample
/// is scored (the weighting skips the non-positive ones, as above).
template <class Model>
double evaluate_prepared(const Model& model, const Coreset& c, const nn::ScoringBatch& batch,
                         const PenaltyConfig& penalty) {
  if (batch.size() != c.size() || c.wc.size() != c.size()) {
    throw std::invalid_argument{"evaluate_on_coreset: batch does not match the coreset"};
  }
  std::vector<double> losses(batch.size());
  model.sample_losses(batch, losses);
  return penalized_from_losses(model, std::span<const Sample>{c.samples}, c.wc, penalty, losses);
}

}  // namespace

double command_balance_penalty(const nn::DrivingPolicy& model, std::span<const Sample> samples,
                               std::span<const double> weights) {
  return command_balance_penalty_impl(model, samples, weights);
}

double command_balance_penalty(const nn::Int8Policy& model, std::span<const Sample> samples,
                               std::span<const double> weights) {
  return command_balance_penalty_impl(model, samples, weights);
}

double penalized_loss(const nn::DrivingPolicy& model, std::span<const Sample> samples,
                      std::span<const double> weights, const PenaltyConfig& penalty,
                      ThreadPool* pool) {
  return penalized_loss_impl(model, samples, weights, penalty, pool);
}

double penalized_loss(const nn::Int8Policy& model, std::span<const Sample> samples,
                      std::span<const double> weights, const PenaltyConfig& penalty,
                      ThreadPool* pool) {
  return penalized_loss_impl(model, samples, weights, penalty, pool);
}

double Coreset::total_weight() const {
  double s = 0.0;
  for (const double w : wc) s += w;
  return s;
}

std::size_t Coreset::logical_bytes() const {
  // Packed frame + 4-byte float w_C per sample, plus a small header.
  return 16 + samples.size() * (data::packed_sample_bytes(spec) + 4);
}

namespace {

/// Lines 1-6 of Algorithm 1 over precomputed per-sample losses; `mass[i]`
/// is sample i's weight in R's weighted sum. One sequential pass in index
/// order, so the partition does not depend on how the losses were scored.
LayerPartition partition_by_loss(std::span<const double> losses,
                                 std::span<const double> mass) {
  LayerPartition part;
  const std::size_t n = losses.size();

  // The center d~ is the smallest-loss sample (line 1).
  double weighted_sum = 0.0;
  double min_loss = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    weighted_sum += mass[i] * losses[i];
    min_loss = std::min(min_loss, losses[i]);
  }
  part.center_loss = min_loss;
  // Line 2: R = f(x; D) / |D| — the weighted-sum loss divided by the size.
  part.ring_radius = std::max(weighted_sum / static_cast<double>(n), 1e-9);

  // Lines 3-6: ring index by loss distance from the center; at most
  // ceil(log2(|D| + 1)) layers beyond layer 0 (outliers clamp to the last).
  const int max_layer =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(n) + 1.0)));
  part.layer_of.resize(n);
  int top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dist = losses[i] - part.center_loss;
    int layer = 0;
    if (dist > part.ring_radius) {
      layer = std::min(static_cast<int>(std::floor(std::log2(dist / part.ring_radius))) + 1,
                       max_layer);
    }
    part.layer_of[i] = layer;
    top = std::max(top, layer);
  }
  part.num_layers = top + 1;
  return part;
}

/// Every sample's loss (the layer partition scores the whole set).
std::vector<double> all_sample_losses(const nn::DrivingPolicy& model,
                                      std::span<const Sample> samples, ThreadPool* pool) {
  return sample_losses(model, samples, pool, [](std::size_t) { return true; });
}

std::vector<double> dataset_weights(const WeightedDataset& dataset) {
  std::vector<double> weights(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) weights[i] = dataset[i].weight;
  return weights;
}

/// Shared core of Algorithm 1 lines 7-15, parameterized over an abstract
/// weighted sample view so both build (from a dataset) and reduce (from a
/// coreset) reuse it.
Coreset layered_sample(std::span<const Sample> samples, std::span<const double> weights,
                       std::span<const int> layer_of, int num_layers, std::size_t target,
                       const data::BevSpec& spec, Rng& rng) {
  Coreset out;
  out.spec = spec;
  if (samples.empty() || target == 0) return out;
  if (target >= samples.size()) {
    // Degenerate: the whole set is its own coreset with w_C = w.
    out.samples.assign(samples.begin(), samples.end());
    out.wc.assign(weights.begin(), weights.end());
    return out;
  }

  // Group indices per layer and compute layer weight masses.
  std::vector<std::vector<std::size_t>> layers(static_cast<std::size_t>(num_layers));
  std::vector<double> layer_mass(static_cast<std::size_t>(num_layers), 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto l = static_cast<std::size_t>(layer_of[i]);
    layers[l].push_back(i);
    layer_mass[l] += std::max(weights[i], 0.0);
  }
  double total_mass = 0.0;
  for (const double m : layer_mass) total_mass += m;
  if (total_mass <= 0.0) total_mass = 1.0;

  // Per-layer budgets: proportional to mass, at least 1 for non-empty layers,
  // then trimmed/topped-up to hit the target exactly.
  std::vector<std::size_t> budget(layers.size(), 0);
  std::size_t assigned = 0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (layers[l].empty()) continue;
    const auto want = static_cast<std::size_t>(
        std::round(static_cast<double>(target) * layer_mass[l] / total_mass));
    budget[l] = std::clamp<std::size_t>(want, 1, layers[l].size());
    assigned += budget[l];
  }
  // Top up (largest remaining capacity first) or trim (smallest layers first).
  while (assigned < target) {
    std::size_t best = layers.size();
    std::size_t best_room = 0;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const std::size_t room = layers[l].size() - budget[l];
      if (room > best_room) {
        best_room = room;
        best = l;
      }
    }
    if (best == layers.size()) break;  // every sample selected
    ++budget[best];
    ++assigned;
  }
  while (assigned > target) {
    std::size_t best = layers.size();
    for (std::size_t l = 0; l < layers.size(); ++l) {
      if (budget[l] > 1 && (best == layers.size() || budget[l] > budget[best])) best = l;
    }
    if (best != layers.size()) {
      --budget[best];
      --assigned;
      continue;
    }
    // Every remaining budget is 1 but the target is smaller than the number
    // of non-empty layers: drop the lightest layers entirely.
    std::size_t lightest = layers.size();
    for (std::size_t l = 0; l < layers.size(); ++l) {
      if (budget[l] == 1 && (lightest == layers.size() || layer_mass[l] < layer_mass[lightest])) {
        lightest = l;
      }
    }
    if (lightest == layers.size()) break;
    budget[lightest] = 0;
    --assigned;
  }

  // Lines 8-14: per-layer weighted sampling without replacement and w_C
  // assignment preserving each layer's weight mass.
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (layers[l].empty() || budget[l] == 0) continue;
    std::vector<double> w_layer;
    w_layer.reserve(layers[l].size());
    for (const std::size_t i : layers[l]) w_layer.push_back(std::max(weights[i], 0.0));
    std::vector<std::size_t> picked = rng.weighted_sample_without_replacement(w_layer, budget[l]);
    if (picked.empty()) {
      // All-zero weights in this layer: fall back to uniform choice.
      picked.push_back(rng.uniform_index(layers[l].size()));
    }
    double selected_mass = 0.0;
    for (const std::size_t p : picked) selected_mass += w_layer[p];
    const double mass = layer_mass[l] > 0.0 ? layer_mass[l]
                                            : static_cast<double>(layers[l].size());
    for (const std::size_t p : picked) {
      const std::size_t i = layers[l][p];
      out.samples.push_back(samples[i]);
      const double w = selected_mass > 0.0 ? weights[i] * mass / selected_mass
                                           : mass / static_cast<double>(picked.size());
      out.wc.push_back(w);
    }
  }
  return out;
}

}  // namespace

LayerPartition partition_into_layers(const nn::DrivingPolicy& model,
                                     const WeightedDataset& dataset, ThreadPool* pool) {
  if (dataset.empty()) throw std::invalid_argument{"partition_into_layers: empty dataset"};
  return partition_by_loss(all_sample_losses(model, dataset.samples(), pool),
                           dataset_weights(dataset));
}

Coreset build_layered_coreset(const WeightedDataset& dataset, const nn::DrivingPolicy& model,
                              const CoresetConfig& cfg, Rng& rng, ThreadPool* pool) {
  if (dataset.empty()) return Coreset{dataset.spec(), {}, {}};
  const LayerPartition part = partition_into_layers(model, dataset, pool);
  return layered_sample(dataset.samples(), dataset_weights(dataset), part.layer_of, part.num_layers,
                        cfg.target_size, dataset.spec(), rng);
}

double evaluate_on_coreset(const nn::DrivingPolicy& model, const Coreset& c,
                           const PenaltyConfig& penalty, ThreadPool* pool) {
  return penalized_loss(model, c.samples, c.wc, penalty, pool);
}

double evaluate_on_coreset(const nn::Int8Policy& model, const Coreset& c,
                           const PenaltyConfig& penalty, ThreadPool* pool) {
  return penalized_loss(model, c.samples, c.wc, penalty, pool);
}

double evaluate_on_coreset(const nn::DrivingPolicy& model, const Coreset& c,
                           const nn::ScoringBatch& batch, const PenaltyConfig& penalty) {
  return evaluate_prepared(model, c, batch, penalty);
}

double evaluate_on_coreset(const nn::Int8Policy& model, const Coreset& c,
                           const nn::ScoringBatch& batch, const PenaltyConfig& penalty) {
  return evaluate_prepared(model, c, batch, penalty);
}

Coreset merge_coresets(const Coreset& a, const Coreset& b) {
  if (!a.empty() && !b.empty() && !(a.spec == b.spec)) {
    throw std::invalid_argument{"merge_coresets: BEV spec mismatch"};
  }
  Coreset out;
  out.spec = a.empty() ? b.spec : a.spec;
  out.samples = a.samples;
  out.wc = a.wc;
  out.samples.insert(out.samples.end(), b.samples.begin(), b.samples.end());
  out.wc.insert(out.wc.end(), b.wc.begin(), b.wc.end());
  return out;
}

Coreset reduce_coreset(const Coreset& c, const nn::DrivingPolicy& model, std::size_t target,
                       Rng& rng, ThreadPool* pool) {
  if (c.size() <= target) return c;
  // Re-run the layer partition over the coreset itself, with w_C as weights
  // (negative w_C adds no mass to R).
  std::vector<double> mass(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) mass[i] = std::max(c.wc[i], 0.0);
  const LayerPartition part = partition_by_loss(all_sample_losses(model, c.samples, pool), mass);
  return layered_sample(c.samples, c.wc, part.layer_of, part.num_layers, target, c.spec, rng);
}

}  // namespace lbchat::coreset
