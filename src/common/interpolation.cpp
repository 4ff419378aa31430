#include "common/interpolation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lbchat {

AkimaSpline::AkimaSpline(std::span<const double> xs, std::span<const double> ys)
    : xs_(xs.begin(), xs.end()), ys_(ys.begin(), ys.end()) {
  if (xs_.size() != ys_.size()) throw std::invalid_argument{"AkimaSpline: size mismatch"};
  if (xs_.size() < 2) throw std::invalid_argument{"AkimaSpline: need >= 2 points"};
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    if (!(xs_[i] > xs_[i - 1])) {
      throw std::invalid_argument{"AkimaSpline: xs must be strictly increasing"};
    }
  }

  const std::size_t n = xs_.size();
  // Secant slopes m_i over [x_i, x_{i+1}], padded with two extrapolated slopes
  // on each side as Akima prescribes.
  std::vector<double> m(n + 3);
  for (std::size_t i = 0; i < n - 1; ++i) {
    m[i + 2] = (ys_[i + 1] - ys_[i]) / (xs_[i + 1] - xs_[i]);
  }
  // Valid secants occupy m[2..n]; extrapolate two pads on each side. With only
  // two points (one secant) the pads all collapse to that secant's slope.
  m[1] = n >= 3 ? 2.0 * m[2] - m[3] : m[2];
  m[0] = 2.0 * m[1] - m[2];
  m[n + 1] = n >= 3 ? 2.0 * m[n] - m[n - 1] : m[n];
  m[n + 2] = 2.0 * m[n + 1] - m[n];

  slopes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w1 = std::abs(m[i + 3] - m[i + 2]);
    const double w2 = std::abs(m[i + 1] - m[i]);
    if (w1 + w2 < 1e-12) {
      slopes_[i] = 0.5 * (m[i + 1] + m[i + 2]);
    } else {
      slopes_[i] = (w1 * m[i + 1] + w2 * m[i + 2]) / (w1 + w2);
    }
  }
}

std::size_t AkimaSpline::interval_of(double x) const {
  // Largest i with xs_[i] <= x, clamped to [0, n-2].
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const auto idx = static_cast<std::size_t>(std::distance(xs_.begin(), it));
  if (idx == 0) return 0;
  return std::min(idx - 1, xs_.size() - 2);
}

double AkimaSpline::operator()(double x) const {
  if (x <= xs_.front()) return ys_.front() + slopes_.front() * (x - xs_.front());
  if (x >= xs_.back()) return ys_.back() + slopes_.back() * (x - xs_.back());
  const std::size_t i = interval_of(x);
  const double h = xs_[i + 1] - xs_[i];
  const double t = (x - xs_[i]) / h;
  const double m = (ys_[i + 1] - ys_[i]) / h;
  // Hermite basis with endpoint derivatives slopes_[i], slopes_[i+1].
  const double a = ys_[i];
  const double b = slopes_[i];
  const double c = (3.0 * m - 2.0 * slopes_[i] - slopes_[i + 1]) / h;
  const double d = (slopes_[i] + slopes_[i + 1] - 2.0 * m) / (h * h);
  const double dx = x - xs_[i];
  (void)t;
  return a + dx * (b + dx * (c + dx * d));
}

double lerp_table(std::span<const double> xs, std::span<const double> ys, double x) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument{"lerp_table: bad table"};
  }
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const auto i = static_cast<std::size_t>(std::distance(xs.begin(), it)) - 1;
  const double t = (x - xs[i]) / (xs[i + 1] - xs[i]);
  return ys[i] + t * (ys[i + 1] - ys[i]);
}

}  // namespace lbchat
