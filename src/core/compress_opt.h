// Model-value assessment and adaptive compression (paper §III-C).
//
// phi mapping: a vehicle samples a series of reciprocal compression ratios
// psi, compresses its model at each, evaluates the compressed models on its
// own coreset, and fits a curve through the (psi, loss) pairs with Akima
// interpolation [21]. The mapping predicts the loss of the compressed model
// at any psi, letting the pair solve Eq. (7) for the optimal (psi_i, psi_j).
//
// Direction of the value terms (DESIGN.md ambiguity #3): the printed Eq. (7)
// and its prose disagree on sign conventions; we implement the construction
// that matches every behavioural claim in the paper: the gain v_i obtains by
// receiving x_j at psi_j is
//     gain_i(psi_j) = relu( f(x_i; C_j) - phi_j(psi_j) ),  gain_i(0) = 0,
// i.e. positive exactly when the peer's (compressed) model still beats v_i's
// model on the peer's own coreset, shrinking as compression degrades it.
//
// Every loss here is scored by an nn::ScoringModel: the float policy, or an
// int8 snapshot of it when ScenarioConfig::int8_eval is on (DESIGN.md §15).
// normalized_coreset_loss is one template per input form; the caller picks
// the model object, and the reduction is the same for both.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/interpolation.h"
#include "coreset/coreset.h"
#include "nn/compress.h"
#include "nn/policy.h"

namespace lbchat::core {

/// Deterministic mass-preserving subsample of a coreset (stride selection,
/// weights rescaled so the total weight is unchanged). Used to keep in-chat
/// evaluations cheap; a no-op when the coreset is already small enough.
[[nodiscard]] coreset::Coreset subsample_coreset(const coreset::Coreset& c, std::size_t max_n);

/// Normalized (per unit weight) penalized loss of a model on a coreset —
/// the loss scale used for value assessment, so magnitudes are comparable
/// across coresets of different mass. `model` is the float policy or an int8
/// snapshot of it (nn::ScoringModel, DESIGN.md §15). Samples are scored on
/// `pool`'s lanes when one is given (bit-identical to the sequential sweep).
template <nn::ScoringModel Model>
[[nodiscard]] double normalized_coreset_loss(const Model& model, const coreset::Coreset& c,
                                             const coreset::PenaltyConfig& penalty,
                                             ThreadPool* pool = nullptr);
/// The same over `batch`, c's samples prepared once for the model's flavour
/// (nn::ScoringBatch): the form a chat uses to score several models — the
/// receiver's and every psi of the sender's sweep — on one coreset.
template <nn::ScoringModel Model>
[[nodiscard]] double normalized_coreset_loss(const Model& model, const coreset::Coreset& c,
                                             const nn::ScoringBatch& batch,
                                             const coreset::PenaltyConfig& penalty);

/// The psi -> predicted-loss mapping of one vehicle's model on one coreset.
class PhiMapping {
 public:
  /// Sampled psi grid used by default (0 is handled analytically: no model).
  /// Dense sampling near 1.0 matters: top-k pruning of *model weights* has a
  /// sharp loss cliff just below the lossless point, and a sparse grid lets
  /// the interpolant under-predict the cost of near-full compression.
  static constexpr double kDefaultPsis[7] = {0.125, 0.25, 0.5, 0.75, 0.875, 0.95, 1.0};

  /// Compress `model` at each sample psi, evaluate on (a subsample of) `c`,
  /// and fit the Akima interpolant. With `int8_eval`, each compressed model
  /// is evaluated through an int8 snapshot (the same estimator the chat's
  /// value scoring uses when the int8 eval knob is on). The subsample is
  /// unfolded once and shared by every psi.
  static PhiMapping build(const nn::DrivingPolicy& model, const coreset::Coreset& c,
                          const coreset::PenaltyConfig& penalty,
                          std::span<const double> psis = kDefaultPsis,
                          std::size_t eval_cap = 64, bool int8_eval = false);
  /// The sweep over a coreset `sub` already prepared as `batch`; an int8
  /// batch evaluates every compressed model through an int8 snapshot.
  static PhiMapping build(const nn::DrivingPolicy& model, const coreset::Coreset& sub,
                          const nn::ScoringBatch& batch, const coreset::PenaltyConfig& penalty,
                          std::span<const double> psis = kDefaultPsis);

  /// Construct directly from (psi, loss) pairs — this is what travels to the
  /// peer as "the results" in Algorithm 2 line 12.
  PhiMapping(std::vector<double> psis, std::vector<double> losses);
  PhiMapping() = default;

  /// Predicted normalized loss of the compressed model at psi (clamped to the
  /// sampled range; psi = 0 returns the worst sampled loss as a sentinel —
  /// callers treat psi = 0 as "no transfer" explicitly).
  [[nodiscard]] double operator()(double psi) const;

  [[nodiscard]] bool valid() const { return spline_.has_value(); }
  [[nodiscard]] const std::vector<double>& sample_psis() const { return psis_; }
  [[nodiscard]] const std::vector<double>& sample_losses() const { return losses_; }

 private:
  std::vector<double> psis_;
  std::vector<double> losses_;
  std::optional<AkimaSpline> spline_;
};

/// Inputs of Eq. (7) as seen by one pair after exchanging coresets and
/// evaluation results. All losses normalized (per unit coreset weight).
struct CompressionProblem {
  double loss_i_on_cj = 0.0;  ///< f(x_i; C_j): v_i's model on the peer coreset
  double loss_j_on_ci = 0.0;  ///< f(x_j; C_i)
  PhiMapping phi_i;           ///< predicted loss of compressed x_i on C_i
  PhiMapping phi_j;           ///< predicted loss of compressed x_j on C_j
  double model_bytes = 0.0;   ///< S (wire size of the uncompressed model)
  double bandwidth_bps = 0.0; ///< min{B_i, B_j}
  double time_budget_s = 15.0;    ///< T_B
  double contact_s = 1e9;         ///< estimated remaining contact duration
  double lambda_c = 0.004;        ///< award-term coefficient
};

struct CompressionDecision {
  double psi_i = 0.0;
  double psi_j = 0.0;
  double objective = 0.0;
  double exchange_time_s = 0.0;  ///< T_c at the optimum

  /// The two gain terms at the optimum (diagnostics).
  double gain_to_j = 0.0;  ///< from receiving x_i at psi_i
  double gain_to_i = 0.0;  ///< from receiving x_j at psi_j
};

/// The gain term of Eq. (7): relu(receiver's loss on the sender's coreset
/// minus the predicted loss of the sender's compressed model); 0 at psi = 0.
[[nodiscard]] double exchange_gain(double receiver_loss_on_sender_coreset,
                                   const PhiMapping& sender_phi, double psi);

/// Solve Eq. (7) by exhaustive search over a (grid+1)^2 psi lattice —
/// exact on the lattice for this 2-D box-and-halfplane feasible set.
[[nodiscard]] CompressionDecision optimize_compression(const CompressionProblem& p,
                                                       int grid = 40);

}  // namespace lbchat::core
