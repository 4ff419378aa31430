// Alternative coreset construction strategies (paper §V "Discussion"):
// the paper notes that "other kinds of coreset construction strategies
// (e.g., random sampling based [16] and clustering based algorithms [31])"
// can be adapted in LbChat, since model-value assessment only needs loss
// differences on the same sets of data samples.
//
// Implemented here:
//  * uniform / sensitivity-flavoured random sampling (importance sampling by
//    per-sample loss, the practical core of [16]);
//  * clustering-based construction in loss space (greedy k-centre over
//    per-sample losses, one representative per cluster, cluster-mass weights
//    — the spirit of the robust coreset of [31] at this substrate's scale).
//
// All constructions return the same Coreset type, so LbChat can swap them in
// unchanged (CoresetMethod in the strategy options).
#pragma once

#include <string_view>

#include "coreset/coreset.h"

namespace lbchat::coreset {

enum class CoresetMethod {
  kLayered = 0,    ///< Algorithm 1 (the paper's default)
  kUniform = 1,    ///< w(d)-weighted random sampling, no layering
  kSensitivity = 2,  ///< importance sampling proportional to w(d) * loss
  kClustering = 3,   ///< greedy k-centre in loss space
};

[[nodiscard]] std::string_view coreset_method_name(CoresetMethod method);

/// w(d)-weighted random sampling without replacement; w_C rescales the
/// selected mass back to the dataset mass (an unbiased estimator, but without
/// Algorithm 1's per-ring variance control).
[[nodiscard]] Coreset build_uniform_coreset(const data::WeightedDataset& dataset,
                                            const CoresetConfig& cfg, Rng& rng);

/// Sensitivity-style importance sampling: selection probability proportional
/// to w(d) * (loss + epsilon), with inverse-probability w_C weights — samples
/// that dominate the objective are kept preferentially ([16]'s principle).
[[nodiscard]] Coreset build_sensitivity_coreset(const data::WeightedDataset& dataset,
                                                const nn::DrivingPolicy& model,
                                                const CoresetConfig& cfg, Rng& rng);

/// Clustering-based construction: greedy k-centre over per-sample losses;
/// each selected centre represents its loss-space cluster and carries the
/// cluster's weight mass.
[[nodiscard]] Coreset build_clustering_coreset(const data::WeightedDataset& dataset,
                                               const nn::DrivingPolicy& model,
                                               const CoresetConfig& cfg, Rng& rng);

/// Dispatch on the method (kLayered routes to build_layered_coreset, which
/// scores its samples on `pool`'s lanes when one is given).
[[nodiscard]] Coreset build_coreset(CoresetMethod method, const data::WeightedDataset& dataset,
                                    const nn::DrivingPolicy& model, const CoresetConfig& cfg,
                                    Rng& rng, ThreadPool* pool = nullptr);

}  // namespace lbchat::coreset
