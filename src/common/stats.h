// Small statistics helpers and the time-series container used to record
// training-loss-vs-time curves (Figs. 2 and 3 of the paper).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bytes.h"

namespace lbchat {

inline double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double stddev(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (const double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

/// Linear-interpolated percentile, p in [0, 100]. Copies the input only when
/// it is not already sorted.
inline double percentile(std::span<const double> v, double p) {
  if (v.empty()) throw std::invalid_argument{"percentile: empty"};
  std::vector<double> scratch;
  if (!std::is_sorted(v.begin(), v.end())) {
    scratch.assign(v.begin(), v.end());
    std::sort(scratch.begin(), scratch.end());
    v = scratch;
  }
  const double idx = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double t = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - t) + v[hi] * t;
}

/// Shannon entropy of a discrete distribution given as non-negative masses
/// (normalized internally); returns 0 for an all-zero input. Natural log.
inline double entropy(std::span<const double> masses) {
  double total = 0.0;
  for (const double m : masses) total += std::max(m, 0.0);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const double m : masses) {
    if (m > 0.0) {
      const double p = m / total;
      h -= p * std::log(p);
    }
  }
  return h;
}

/// A (time, value) series; append-only, time must be non-decreasing.
struct TimeSeries {
  std::vector<double> times;
  std::vector<double> values;

  void add(double t, double v) {
    if (!times.empty() && t < times.back()) {
      throw std::invalid_argument{"TimeSeries: time must be non-decreasing"};
    }
    times.push_back(t);
    values.push_back(v);
  }

  [[nodiscard]] std::size_t size() const { return times.size(); }
  [[nodiscard]] bool empty() const { return times.empty(); }

  /// Most recent value (throws on an empty series).
  [[nodiscard]] double last() const {
    if (values.empty()) throw std::out_of_range{"TimeSeries: empty"};
    return values.back();
  }
  /// Time of the most recent sample (throws on an empty series).
  [[nodiscard]] double last_time() const {
    if (times.empty()) throw std::out_of_range{"TimeSeries: empty"};
    return times.back();
  }

  /// Value at time `t` by step interpolation (last value at or before t);
  /// before the first sample returns the first value.
  [[nodiscard]] double at(double t) const {
    if (times.empty()) throw std::out_of_range{"TimeSeries: empty"};
    auto it = std::upper_bound(times.begin(), times.end(), t);
    if (it == times.begin()) return values.front();
    return values[static_cast<std::size_t>(std::distance(times.begin(), it)) - 1];
  }

  /// First time at which the value drops to or below `threshold`, or a
  /// negative value if it never does. Used for convergence-time comparisons
  /// (Fig. 3: SCO takes 1.5-1.8x longer to reach the same loss).
  [[nodiscard]] double first_time_below(double threshold) const {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] <= threshold) return times[i];
    }
    return -1.0;
  }
};

/// Field list of a TimeSeries (common/bytes.h), shared by checkpoints and the
/// bench cache.
template <class Io, FieldsOf<TimeSeries> S>
void fields(Io& io, S& ts) {
  io(ts.times);
  io(ts.values);
  if constexpr (Io::kLoad) {
    if (ts.times.size() != ts.values.size()) {
      throw std::runtime_error{"TimeSeries: length mismatch"};
    }
  }
}

}  // namespace lbchat
