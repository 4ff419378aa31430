// Coreset construction and evaluation (paper §II-B, §III-B, §III-D).
//
// Implements:
//  * the penalized local loss f(x; xi) of Eq. (6): weighted empirical risk
//    + lambda_1 * ||x|| (L2 of the parameters) + lambda_2 * sigma(x), where
//    sigma is the per-command loss-balance penalty;
//  * Algorithm 1, layered-sampling coreset construction [15]: partition the
//    dataset into concentric loss-rings around the smallest-loss sample and
//    take a w(d)-weighted random sample from each ring;
//  * coreset merge (union) and 'reduce' [10], which together keep the coreset
//    size constant under frequent encounters (§III-D fast path).
//
// Every per-sample loss sweep takes an optional lane pool (`pool`, null =
// sequential) and scores chunk by chunk through the batched forward-only
// path (nn::score_samples). Each sample's loss lands in its own slot and
// every reduction over the slots runs afterwards on the caller in index
// order, so results are bit-identical at any lane count; RNG draws stay on
// the caller.
//
// The Eq. (6) evaluations are one template each over nn::ScoringModel: the
// float policy, or an int8 snapshot of it (DESIGN.md §15), whose ||x|| term
// is the dequantized parameter norm. The caller picks the model object; the
// reductions and their summation order are the same for both.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/frame.h"
#include "nn/policy.h"

namespace lbchat {
class ThreadPool;  // common/thread_pool.h
}

namespace lbchat::coreset {

/// Coefficients of the two penalty terms in Eq. (6).
struct PenaltyConfig {
  double lambda1 = 1e-4;  ///< structural risk: L2 norm of the parameters
  double lambda2 = 0.05;  ///< problem-dependent sigma(x): command-balance
};

/// sigma(x) for the BEV driving model: the paper defines it as "the entropy of
/// the losses observed with data samples of different driving commands" so the
/// model addresses all commands without bias. Uniform per-command losses are
/// the desired (unbiased) state and have *maximal* entropy, so the quantity
/// actually minimized is the entropy gap log(#commands) - H(normalized
/// per-command losses), which is >= 0 and zero exactly at balance.
template <nn::ScoringModel Model>
double command_balance_penalty(const Model& model, std::span<const data::Sample> samples,
                               std::span<const double> weights = {});

/// Full penalized loss f(x; xi) of Eq. (6) over weighted samples. `weights`
/// empty means "use each sample's own w(d)". Note this is a weighted *sum*
/// (Eq. (2)/(4)), not a mean, so f(x; C) approximates f(x; D) in magnitude.
template <nn::ScoringModel Model>
double penalized_loss(const Model& model, std::span<const data::Sample> samples,
                      std::span<const double> weights = {}, const PenaltyConfig& penalty = {},
                      ThreadPool* pool = nullptr);

/// A coreset C: samples plus their in-coreset weights w_C(d) (distinct from
/// the original weights w(d), which remain in Sample::weight).
struct Coreset {
  data::BevSpec spec = data::kDefaultBevSpec;
  std::vector<data::Sample> samples;
  std::vector<double> wc;  ///< w_C(d), parallel to samples

  [[nodiscard]] std::size_t size() const { return samples.size(); }
  [[nodiscard]] bool empty() const { return samples.empty(); }
  [[nodiscard]] double total_weight() const;
  /// Logical wire size (packed BEV bits + labels + w_C), before the
  /// net::WireSizeModel rescales it to paper-scale bytes.
  [[nodiscard]] std::size_t logical_bytes() const;
};

struct CoresetConfig {
  std::size_t target_size = 150;  ///< |C|; the paper's default is 150 frames
  PenaltyConfig penalty;
};

/// Result of the layer partition step of Algorithm 1 (exposed for tests).
struct LayerPartition {
  double center_loss = 0.0;          ///< f(x; d~) = min_d f(x; d)
  double ring_radius = 0.0;          ///< R = f(x; D) / |D|
  std::vector<int> layer_of;         ///< layer index per dataset sample
  int num_layers = 0;                ///< L + 1 populated layer slots
};

/// Lines 1-6 of Algorithm 1: partition by per-sample loss into concentric
/// rings. A sample with loss distance dist <= R lands in layer 0; otherwise in
/// layer floor(log2(dist / R)), clamped to ceil(log2(|D| + 1)) layers.
LayerPartition partition_into_layers(const nn::DrivingPolicy& model,
                                     const data::WeightedDataset& dataset,
                                     ThreadPool* pool = nullptr);

/// Algorithm 1 end-to-end: layered-sampling coreset construction. Per-layer
/// budgets are proportional to layer weight mass (>= 1 sample per non-empty
/// layer); sampling within a layer is w(d)-weighted without replacement; the
/// in-coreset weight is w_C(d) = w(d) * (layer weight) / (selected weight),
/// which preserves each layer's total mass and reduces to the paper's line 12
/// under equal w(d).
Coreset build_layered_coreset(const data::WeightedDataset& dataset,
                              const nn::DrivingPolicy& model, const CoresetConfig& cfg, Rng& rng,
                              ThreadPool* pool = nullptr);

/// f(x; C) of Eq. (4)/(6): penalized weighted-sum loss on the coreset.
template <nn::ScoringModel Model>
double evaluate_on_coreset(const Model& model, const Coreset& c, const PenaltyConfig& penalty = {},
                           ThreadPool* pool = nullptr);
/// The same over `batch`, c's samples prepared once (nn::ScoringBatch of the
/// model's flavour), so several models are scored on c without unfolding
/// its samples again. Bit-identical to the form above.
template <nn::ScoringModel Model>
double evaluate_on_coreset(const Model& model, const Coreset& c, const nn::ScoringBatch& batch,
                           const PenaltyConfig& penalty = {});

/// Union of two coresets (valid epsilon-coreset of the union of the original
/// datasets when those are disjoint; paper §III-D).
Coreset merge_coresets(const Coreset& a, const Coreset& b);

/// 'Reduce' operation: shrink a coreset back to `target` samples by running
/// layered sampling over the coreset itself (treating w_C as the weights), so
/// merge-then-reduce keeps |C| constant under frequent encounters.
Coreset reduce_coreset(const Coreset& c, const nn::DrivingPolicy& model, std::size_t target,
                       Rng& rng, ThreadPool* pool = nullptr);

}  // namespace lbchat::coreset
