// The BEV-based driving decision model (paper §IV-A).
//
// Miniature analogue of the privileged imitation-learning agent of
// "Learning by Cheating" [19]: input is a binary BEV raster plus a high-level
// navigation command; output is the next kNumWaypoints waypoints in the ego
// frame. The command conditions the output through per-command branch heads,
// as in conditional imitation learning.
//
// Architecture (defaults, ~27k parameters):
//   BEV [4,16,16] -> Conv 3x3 s2 (8ch) -> ReLU -> Conv 3x3 s2 (16ch) -> ReLU
//   -> flatten(256) -> Linear(64) -> ReLU -> branch[cmd]: Linear(32) -> ReLU
//   -> Linear(2*kNumWaypoints)
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "data/frame.h"
#include "nn/layers.h"
#include "nn/optim.h"

namespace lbchat {
class ThreadPool;  // common/thread_pool.h
}

namespace lbchat::nn {

class DrivingPolicy;
class Int8Policy;  // nn/int8_policy.h

struct PolicyConfig {
  data::BevSpec bev = data::kDefaultBevSpec;
  int conv1_channels = 8;
  int conv2_channels = 16;
  int fc_dim = 64;
  int branch_hidden = 32;

  friend constexpr bool operator==(const PolicyConfig&, const PolicyConfig&) = default;
};

/// Per-sample model output: normalized ego-frame waypoints, interleaved x,y.
using WaypointVector = std::array<float, 2 * data::kNumWaypoints>;

/// Samples per scoring chunk: each conv runs as one GEMM over a chunk's
/// pixels side by side (N = chunk * out_plane), the fc once per chunk.
inline constexpr std::size_t kScoringChunk = 16;

/// Samples prepared once for forward-only scoring (DESIGN.md §7): their
/// conv1 columns, unfolded straight from the binary BEV cells (no raster
/// pass), plus their commands and target waypoints. Built for one model
/// flavour — float columns for DrivingPolicy, int8 codes for Int8Policy —
/// and then shared by every model of that flavour and config scored on the
/// same samples, so conv1's unfold is paid once per sample, not once per
/// model. Holds kScoringChunk-sample blocks; callers keep batches small
/// (a chunk per lane, or a chat's evaluation subsample), never a dataset.
class ScoringBatch {
 public:
  ScoringBatch() = default;
  ScoringBatch(const DrivingPolicy& model, std::span<const data::Sample> samples);
  ScoringBatch(const Int8Policy& model, std::span<const data::Sample> samples);

  /// Refill in place from sample pointers, reusing this batch's buffers.
  void assign(const DrivingPolicy& model, std::span<const data::Sample* const> samples);
  void assign(const Int8Policy& model, std::span<const data::Sample* const> samples);

  [[nodiscard]] std::size_t size() const { return cmds_.size(); }
  [[nodiscard]] bool int8() const { return kpad_ > 0; }

 private:
  friend class DrivingPolicy;
  friend class Int8Policy;

  /// Commands, targets and config of `samples`; columns are the caller's.
  void assign_labels(const PolicyConfig& cfg, std::span<const data::Sample* const> samples,
                     int kpad);
  /// L1 waypoint loss (mean abs error) of prediction `pred` for sample i.
  [[nodiscard]] double l1_loss(std::size_t i, const float* pred) const;

  PolicyConfig cfg_;
  int kpad_ = 0;  ///< int8 panel width (0: float columns)
  std::vector<data::Command> cmds_;
  std::vector<WaypointVector> targets_;
  /// Float: one [col_rows, c*out_plane] block per chunk of c samples.
  std::vector<float> cols_;
  /// Int8: [n*out_plane, kpad] channel-last codes (chunks are row ranges).
  std::vector<std::int8_t> codes_;
};

class DrivingPolicy {
 public:
  explicit DrivingPolicy(const PolicyConfig& cfg = {}, std::uint64_t init_seed = 42);

  [[nodiscard]] const PolicyConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t param_count() const { return store_.size(); }
  [[nodiscard]] std::span<const float> params() const { return store_.params(); }
  [[nodiscard]] std::span<float> params() { return store_.params(); }
  void set_params(std::span<const float> p);
  /// ||x||, the L2 norm of the parameters (Eq. (6)'s structural risk).
  [[nodiscard]] double param_l2_norm() const;

  /// L1 waypoint loss of every sample of `batch` into `out` (same size) —
  /// the one forward-only path; the calls below wrap it.
  void sample_losses(const ScoringBatch& batch, std::span<double> out) const;

  /// Inference on one frame.
  [[nodiscard]] WaypointVector predict(const data::BevGrid& bev, data::Command cmd) const;

  /// L1 waypoint loss of the model's prediction on one sample.
  [[nodiscard]] double sample_loss(const data::Sample& s) const;

  /// Mean loss over `samples` weighted by `weights` (must match in size, or
  /// weights may be empty for uniform). This is the plain empirical term of
  /// f(x; xi) in Eq. (6); the penalty terms live in coreset::penalized_loss.
  /// Scored chunk by chunk, so no columns are held for the whole set.
  [[nodiscard]] double weighted_loss(std::span<const data::Sample> samples,
                                     std::span<const double> weights = {}) const;
  /// The same over a prepared batch (e.g. one shared by two models).
  [[nodiscard]] double weighted_loss(const ScoringBatch& batch,
                                     std::span<const double> weights = {}) const;

  /// Compute the minibatch gradient into the internal gradient buffer
  /// (zeroed first) without touching the parameters; returns the batch loss.
  /// Exposed so strategies with bespoke update rules (e.g. ProxSkip control
  /// variates) can post-process the gradient before stepping.
  double compute_batch_gradient(std::span<const data::Sample* const> batch);
  [[nodiscard]] std::span<const float> grads() const { return store_.grads(); }

  /// One optimizer step on the given minibatch (already sampled, typically by
  /// w(d)-weighted sampling, so the batch loss is unweighted). Returns the
  /// batch loss before the update.
  double train_batch(std::span<const data::Sample* const> batch, Optimizer& opt);

 private:
  /// The int8 forward-only twin (nn/int8_policy.h) snapshots the layer
  /// descriptors and parameter store directly at quantization time.
  friend class Int8Policy;
  friend class ScoringBatch;

  struct Workspace;
  struct ScoreWorkspace;
  /// Training forward pass over a batch; fills the workspace with all
  /// activations and both convs' columns (reused by the backward).
  void forward(std::span<const data::Sample* const> batch, Workspace& ws) const;
  /// Scoring forward over the chunk of `batch` starting at sample `first`
  /// (a multiple of kScoringChunk); leaves [count, out_dim] outputs in ws.out.
  void forward_chunk(const ScoringBatch& batch, std::size_t first, std::size_t count,
                     ScoreWorkspace& ws) const;

  PolicyConfig cfg_;
  ParamStore store_;
  Conv2d conv1_, conv2_;
  Linear fc_;
  struct Branch {
    Linear hidden;
    Linear out;
  };
  std::vector<Branch> branches_;
};

/// Euclidean L2 norm of a parameter vector (the ||x|| regularizer of Eq. (6)).
[[nodiscard]] double param_l2_norm(std::span<const float> params);

/// The model flavours that score samples: the float policy and its int8
/// snapshot (nn/int8_policy.h). Every scoring template — score_samples
/// below, coreset::penalized_loss and its kin, core::normalized_coreset_loss
/// — is written once and instantiated for exactly these two.
template <class Model>
concept ScoringModel = std::same_as<Model, DrivingPolicy> || std::same_as<Model, Int8Policy>;

/// Per-sample losses of `samples` under `model` into `out` (same size),
/// scored chunk by chunk on `pool`'s lanes (null = sequential): each lane
/// unfolds one chunk at a time into its own scratch batch, so nothing is
/// held for the whole set. Every loss lands in its own slot and does not
/// depend on the lane count.
template <ScoringModel Model>
void score_samples(const Model& model, std::span<const data::Sample* const> samples,
                   std::span<double> out, ThreadPool* pool = nullptr);

}  // namespace lbchat::nn
