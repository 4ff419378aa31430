// 2-D geometry primitives used by the driving-world and network simulators.
#pragma once

#include <cmath>
#include <compare>

namespace lbchat {

/// A 2-D point / vector in metres (world frame) or in the ego frame.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  friend constexpr bool operator==(const Vec2&, const Vec2&) = default;

  [[nodiscard]] double norm() const { return std::hypot(x, y); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
  [[nodiscard]] constexpr double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product; >0 when `o` is counter-clockwise of *this.
  [[nodiscard]] constexpr double cross(const Vec2& o) const { return x * o.y - y * o.x; }
  [[nodiscard]] double heading() const { return std::atan2(y, x); }

  /// Unit vector in the same direction; returns {1,0} for the zero vector.
  [[nodiscard]] Vec2 normalized() const {
    const double n = norm();
    return n > 1e-12 ? Vec2{x / n, y / n} : Vec2{1.0, 0.0};
  }

  /// Rotate counter-clockwise by `angle` radians.
  [[nodiscard]] Vec2 rotated(double angle) const;
};

inline constexpr Vec2 operator*(double s, const Vec2& v) { return v * s; }

/// Counter-clockwise rotation by a fixed angle, its cos/sin computed once:
/// a loop that turns many points by one heading pays one trig pair.
struct Rotation {
  double c;
  double s;

  explicit Rotation(double angle) : c(std::cos(angle)), s(std::sin(angle)) {}
  [[nodiscard]] constexpr Vec2 operator()(const Vec2& v) const {
    return {c * v.x - s * v.y, s * v.x + c * v.y};
  }
};

inline Vec2 Vec2::rotated(double angle) const { return Rotation{angle}(*this); }

inline double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }

/// distance(a, b) > r for r > 0, with the same answer bit for bit: the
/// squared distance decides unless it lies within a relative 1e-9 of r²,
/// far wider than the few ulps either value can be off, and only there
/// does distance() itself (a hypot call) decide.
inline bool farther_than(const Vec2& a, const Vec2& b, double r) {
  const double d2 = (a - b).norm2();
  const double r2 = r * r;
  if (d2 > r2 * (1.0 + 1e-9)) return true;
  if (d2 < r2 * (1.0 - 1e-9)) return false;
  return distance(a, b) > r;
}

/// Normalize an angle into (-pi, pi].
inline double wrap_angle(double a) {
  while (a > M_PI) a -= 2.0 * M_PI;
  while (a <= -M_PI) a += 2.0 * M_PI;
  return a;
}

/// Express world point `p` in the frame of an observer at `origin` with heading
/// `heading` (x forward, y left). The Rotation form takes Rotation{-heading},
/// for loops over many points seen from one pose.
inline Vec2 to_ego_frame(const Vec2& p, const Vec2& origin, const Rotation& minus_heading) {
  return minus_heading(p - origin);
}
inline Vec2 to_ego_frame(const Vec2& p, const Vec2& origin, double heading) {
  return to_ego_frame(p, origin, Rotation{-heading});
}

/// Inverse of to_ego_frame; the Rotation form takes Rotation{heading}.
inline Vec2 to_world_frame(const Vec2& p, const Vec2& origin, const Rotation& heading) {
  return origin + heading(p);
}
inline Vec2 to_world_frame(const Vec2& p, const Vec2& origin, double heading) {
  return to_world_frame(p, origin, Rotation{heading});
}

/// Distance from point `p` to the segment [a, b].
inline double point_segment_distance(const Vec2& p, const Vec2& a, const Vec2& b) {
  const Vec2 ab = b - a;
  const double len2 = ab.norm2();
  if (len2 < 1e-12) return distance(p, a);
  double t = (p - a).dot(ab) / len2;
  t = t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
  return distance(p, a + ab * t);
}

}  // namespace lbchat
