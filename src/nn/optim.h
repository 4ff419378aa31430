// First-order optimizers operating on flat parameter/gradient arrays.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace lbchat {
class ByteWriter;
class ByteReader;
}  // namespace lbchat

namespace lbchat::nn {

/// Interface for optimizers over one model's flat parameter vector.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Apply one update; params and grads must have the same (stable) size
  /// across calls.
  virtual void step(std::span<float> params, std::span<const float> grads) = 0;
  /// Reset internal state (momentum/moment buffers).
  virtual void reset() = 0;
  [[nodiscard]] virtual std::unique_ptr<Optimizer> clone() const = 0;

  /// Stable identifier of the concrete optimizer (e.g. "adam"), used to
  /// validate checkpoint compatibility before load_state().
  [[nodiscard]] virtual std::string_view kind() const = 0;
  /// Serialize/restore the mutable state (moment buffers, step count) so a
  /// restored optimizer continues bit-identically. Hyperparameters are NOT
  /// serialized; they come from the reconstructed configuration.
  virtual void save_state(ByteWriter& w) const = 0;
  virtual void load_state(ByteReader& r) = 0;

  [[nodiscard]] double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 protected:
  explicit Optimizer(double lr) : lr_(lr) {}
  double lr_;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
class Adam final : public Optimizer {
 public:
  explicit Adam(double lr = 1e-4, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8,
                double weight_decay = 0.0)
      : Optimizer(lr), beta1_(beta1), beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {}

  void step(std::span<float> params, std::span<const float> grads) override;
  void reset() override {
    m_.clear();
    v_.clear();
    t_ = 0;
  }
  [[nodiscard]] std::unique_ptr<Optimizer> clone() const override {
    return std::make_unique<Adam>(lr_, beta1_, beta2_, eps_, weight_decay_);
  }
  [[nodiscard]] std::string_view kind() const override { return "adam"; }
  void save_state(ByteWriter& w) const override;
  void load_state(ByteReader& r) override;

 private:
  template <class Io, class S>
  static void fields(Io& io, S& adam);

  double beta1_, beta2_, eps_, weight_decay_;
  std::vector<float> m_, v_;
  long t_ = 0;
};

namespace detail {

/// One Adam step's coefficients: the moment decays in float, the bias
/// corrections and update terms in double, as the scalar loop uses them.
struct AdamCoeffs {
  float b1, b2, one_minus_b1, one_minus_b2;
  double bc1, bc2, lr, eps, weight_decay;
};

#if defined(__x86_64__) || defined(__i386__)
namespace avx2 {
/// The 4-wide Adam body (optim_avx2.cpp; call only when the AVX2 path is
/// available): updates elements [0, n - n % 4) bit for bit as the scalar
/// loop would and returns how many it updated.
std::size_t adam_update(const AdamCoeffs& c, std::size_t n, float* params, const float* grads,
                        float* m, float* v);
}  // namespace avx2
#endif

}  // namespace detail

}  // namespace lbchat::nn
