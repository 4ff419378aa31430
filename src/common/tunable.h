// Strategy tunables, each declared once next to its options field.
//
// An options struct lists its user-settable fields in a static tunables():
// name, member, valid range and description, in a fixed order.
//
//     struct FooOptions {
//       double rate = 0.2;
//       static constexpr auto tunables() {
//         return std::array{
//             tunable<&FooOptions::rate>("rate", within(0.0, 1.0), "send probability")};
//       }
//     };
//
// Every surface reads that one declaration: the strategy registry's schema
// (its default is the field of a default-constructed struct), the registry
// factory and its range check, and the checkpoint echo (echo_tunables),
// which refuses to resume a run under a different tuning.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>

namespace lbchat {

/// The values a tunable accepts: finite, above `lo` (or equal to it unless
/// `lo_open`), at most `hi`, and whole for an integer member.
struct TunableRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool integer = false;

  [[nodiscard]] bool contains(double x) const {
    return std::isfinite(x) && (lo_open ? x > lo : x >= lo) && x <= hi &&
           (!integer || x == std::floor(x));
  }
  /// "must be ..." text for error messages.
  [[nodiscard]] std::string describe() const {
    const auto num = [](double x) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", x);
      return std::string{buf};
    };
    if (integer) return "an integer in [" + num(lo) + ", " + num(hi) + "]";
    if (std::isinf(hi)) return (lo_open ? "> " : ">= ") + num(lo);
    return (lo_open ? "in (" : "in [") + num(lo) + ", " + num(hi) + "]";
  }
};

constexpr TunableRange at_least(double lo) { return {.lo = lo}; }
constexpr TunableRange above(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr TunableRange within(double lo, double hi) { return {.lo = lo, .hi = hi}; }

template <class Opts>
struct Tunable {
  const char* name;
  double (*get)(const Opts&);
  void (*set)(Opts&, double);  ///< `x` must lie in `range`
  TunableRange range;
  const char* description;
};

template <class M>
struct MemberOf;
template <class C, class T>
struct MemberOf<T C::*> {
  using Owner = C;
  using Value = T;
};

/// 2^53, the largest count a double still names exactly.
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/// `range` as an integral T reads it: an integer range capped at T's
/// maximum and at kMaxExactInteger.
template <class T>
constexpr TunableRange integral_range(TunableRange range) {
  range.integer = true;
  range.hi = std::min(
      {range.hi, static_cast<double>(std::numeric_limits<T>::max()), kMaxExactInteger});
  return range;
}

/// The tunable for member `Member`; an integral member takes integral_range.
template <auto Member>
constexpr Tunable<typename MemberOf<decltype(Member)>::Owner> tunable(
    const char* name, TunableRange range, const char* description) {
  using Opts = typename MemberOf<decltype(Member)>::Owner;
  using T = typename MemberOf<decltype(Member)>::Value;
  if constexpr (std::is_integral_v<T>) range = integral_range<T>(range);
  return {name, [](const Opts& o) { return static_cast<double>(o.*Member); },
          [](Opts& o, double x) { o.*Member = static_cast<T>(x); }, range, description};
}

/// Saves (Save) or checks (Load::exact) every tunable of `opts` as an f64, in
/// declaration order. A tuned strategy's state blob starts with this echo,
/// so a checkpoint never resumes under another tuning.
template <class Io, class Opts>
void echo_tunables(Io&& io, const Opts& opts) {
  for (const auto& t : Opts::tunables()) io.exact(t.get(opts), t.name);
}

}  // namespace lbchat
