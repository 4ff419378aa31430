// Forward-only int8 twin of DrivingPolicy (DESIGN.md §15).
//
// The two hottest evaluation-side calls at fleet scale — coreset value
// scoring inside LbChat handshakes and the engine's mean_eval_loss — only
// need inference-grade precision. Int8Policy snapshots a float policy into
// per-output-channel int8 weights (symmetric absmax, nn/quantize.h
// conventions) and runs the forward pass through the integer GEMM kernel
// (nn::igemm_abt_u8s8): the binary BEV maps straight to {0,127} codes at
// scale 1/127, interior activations are re-quantized per tensor before each
// layer, accumulation is exact int32, and dequantize+bias+ReLU happen in
// float between layers. Activations live in channel-last layout ([h][w][c])
// so the conv unfold is a handful of clipped memcpys per output pixel; the
// conv/fc weights are permuted to match once at construction (a permutation
// moves neither the per-row absmax nor any dot-product value). Every
// activation tensor is non-negative (binary input, post-ReLU interiors),
// which is what licenses the u8s8 kernel. Because integer accumulation is
// exact on every dispatch path, an int8 evaluation is reproducible across
// scalar/AVX2 — the float layers around it are the only per-path numerics.
//
// Cost model: quantizing the ~27k parameters is a few microseconds, done
// once per snapshot; each eval call then replaces float GEMMs with int8
// ones. The engine constructs one Int8Policy per vehicle per eval sweep.
// Scoring runs through an int8 ScoringBatch (nn/policy.h) chunk by chunk:
// conv1's panel comes straight from the BEV bits, and each layer is one
// integer GEMM over the chunk with per-sample activation scales.
//
// Int8Policy is one of the two nn::ScoringModel types: score_samples,
// coreset::penalized_loss and its kin, and core::normalized_coreset_loss
// are single templates instantiated for it and for DrivingPolicy, so a call
// site picks int8 by passing a snapshot instead of the float model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/frame.h"
#include "nn/policy.h"

namespace lbchat::nn {

class Int8Policy {
 public:
  /// Snapshot `src` into int8. The float model is not retained.
  explicit Int8Policy(const DrivingPolicy& src);

  [[nodiscard]] const PolicyConfig& config() const { return cfg_; }

  /// L1 waypoint loss of every sample of an int8 `batch` into `out` — the
  /// one int8 forward path; the calls below wrap it. Integer accumulation
  /// is exact and every float step is per sample, so chunking moves no bit.
  void sample_losses(const ScoringBatch& batch, std::span<double> out) const;

  /// Inference on one frame (int8 forward pass).
  [[nodiscard]] WaypointVector predict(const data::BevGrid& bev, data::Command cmd) const;

  /// L1 waypoint loss on one sample — same reduction as the float policy.
  [[nodiscard]] double sample_loss(const data::Sample& s) const;

  /// Weighted mean loss; mirrors DrivingPolicy::weighted_loss bit-for-bit in
  /// reduction order, so thread-count bit-identity carries over.
  [[nodiscard]] double weighted_loss(std::span<const data::Sample> samples,
                                     std::span<const double> weights = {}) const;

  /// L2 norm of the *dequantized* parameter vector — the ||x|| the quantized
  /// model actually represents, the Eq. (6) norm term when it is scored.
  [[nodiscard]] double param_l2_norm() const { return param_l2_; }

 private:
  struct QLinear {
    int in = 0, out = 0;
    std::vector<std::int8_t> w;  ///< [out, in] codes (fc rows in channel-last order)
    std::vector<float> scale;    ///< per-out-row dequant scale
    std::vector<float> bias;     ///< float biases (exact)
  };
  struct QConv {
    Conv2d geom;                 ///< shape/stride/pad descriptor (offsets unused)
    int kpad = 0;                ///< col_rows() rounded up to 32 (zero-padded codes)
    std::vector<std::int8_t> w;  ///< [out_ch, kpad] codes in [kr][kc][ic] order
    std::vector<float> scale;    ///< per-out-channel dequant scale
    std::vector<float> bias;
  };
  struct Workspace;
  friend class ScoringBatch;

  /// Forward over the chunk of `batch` starting at sample `first`; leaves
  /// [count, out_dim] outputs in ws.out.
  void forward_chunk(const ScoringBatch& batch, std::size_t first, std::size_t count,
                     Workspace& ws) const;
  /// y [rows, ql.out] from post-ReLU x [rows, ql.in]: each row quantized at
  /// its own per-tensor scale (one row = one sample's activation tensor).
  void qlinear_rows(const QLinear& ql, std::span<const float> x, std::size_t rows, float* y,
                    Workspace& ws) const;

  PolicyConfig cfg_;
  QConv conv1_, conv2_;
  QLinear fc_;
  struct QBranch {
    QLinear hidden;
    QLinear out;
  };
  std::vector<QBranch> branches_;
  double param_l2_ = 0.0;
};

}  // namespace lbchat::nn
