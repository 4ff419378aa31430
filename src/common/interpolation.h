// Akima spline interpolation (Akima, JACM 1970) — the curve-fitting method the
// paper uses ([21]) to build the mapping function phi between the reciprocal
// compression ratio psi and the loss of the compressed model on a coreset.
#pragma once

#include <span>
#include <vector>

namespace lbchat {

/// One-dimensional Akima interpolant through strictly-increasing abscissae.
///
/// Akima's method fits a piecewise cubic whose derivative at each knot is a
/// locally weighted average of neighbouring secant slopes; unlike a natural
/// cubic spline it does not oscillate around outliers, which matters here
/// because the sampled (psi, loss) pairs are noisy.
class AkimaSpline {
 public:
  /// Build from knots. Requires xs.size() == ys.size() >= 2 and xs strictly
  /// increasing; throws std::invalid_argument otherwise. With exactly 2 points
  /// the interpolant degenerates to the connecting line.
  AkimaSpline(std::span<const double> xs, std::span<const double> ys);

  /// Evaluate at `x`. Outside [xs.front(), xs.back()] the boundary cubic is
  /// clamped to linear extrapolation from the nearest knot's slope.
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] double min_x() const { return xs_.front(); }
  [[nodiscard]] double max_x() const { return xs_.back(); }

 private:
  [[nodiscard]] std::size_t interval_of(double x) const;

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> slopes_;  // derivative at each knot
};

/// Linear interpolation through a table of (x, y) pairs with clamped ends.
/// Used for the distance→wireless-loss lookup table.
double lerp_table(std::span<const double> xs, std::span<const double> ys, double x);

}  // namespace lbchat
