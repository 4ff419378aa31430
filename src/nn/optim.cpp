#include "nn/optim.h"

#include <cmath>
#include <stdexcept>

#include "common/bytes.h"

namespace lbchat::nn {

void Adam::step(std::span<float> params, std::span<const float> grads) {
  if (params.size() != grads.size()) throw std::invalid_argument{"Adam::step: size mismatch"};
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0f);
    v_.assign(params.size(), 0.0f);
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float g = grads[i];
    m_[i] = b1 * m_[i] + (1.0f - b1) * g;
    v_[i] = b2 * v_[i] + (1.0f - b2) * g * g;
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    params[i] -= static_cast<float>(lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                                           weight_decay_ * params[i]));
  }
}

template <class Io, class S>
void Adam::fields(Io& io, S& adam) {
  io(adam.m_);
  io(adam.v_);
  if constexpr (Io::kLoad) {
    if (adam.m_.size() != adam.v_.size()) {
      throw std::invalid_argument{"Adam::load_state: m/v size mismatch"};
    }
  }
  io(adam.t_);
}

void Adam::save_state(ByteWriter& w) const {
  Save io{w};
  fields(io, *this);
}

void Adam::load_state(ByteReader& r) {
  Load io{r};
  fields(io, *this);
}

}  // namespace lbchat::nn
