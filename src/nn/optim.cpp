#include "nn/optim.h"

#include <cmath>
#include <stdexcept>

#include "common/bytes.h"
#include "nn/kernel_dispatch.h"

namespace lbchat::nn {

void Adam::step(std::span<float> params, std::span<const float> grads) {
  if (params.size() != grads.size()) throw std::invalid_argument{"Adam::step: size mismatch"};
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0f);
    v_.assign(params.size(), 0.0f);
    t_ = 0;
  }
  ++t_;
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const detail::AdamCoeffs c{b1,
                             b2,
                             1.0f - b1,
                             1.0f - b2,
                             1.0 - std::pow(beta1_, static_cast<double>(t_)),
                             1.0 - std::pow(beta2_, static_cast<double>(t_)),
                             lr_,
                             eps_,
                             weight_decay_};
  std::size_t i = 0;
#if defined(__x86_64__) || defined(__i386__)
  // The vector body is bit-identical to this loop, so the path only moves
  // time; the loop finishes the n % 4 tail either way.
  if (active_kernel_path() == KernelPath::kAvx2) {
    i = detail::avx2::adam_update(c, params.size(), params.data(), grads.data(), m_.data(),
                                  v_.data());
  }
#endif
  for (; i < params.size(); ++i) {
    const float g = grads[i];
    m_[i] = c.b1 * m_[i] + c.one_minus_b1 * g;
    v_[i] = c.b2 * v_[i] + c.one_minus_b2 * g * g;
    const double mhat = m_[i] / c.bc1;
    const double vhat = v_[i] / c.bc2;
    params[i] -= static_cast<float>(c.lr * (mhat / (std::sqrt(vhat) + c.eps) +
                                            c.weight_decay * params[i]));
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
