// Wire serialization of assistive information (net::AssistInfo).
//
// The shared route travels as its road-graph node sequence (compact — the
// receiver holds the same map and rebuilds the polyline, as a navigation
// service would). AssistInfo::route is a non-owning pointer, so the rebuilt
// Route must outlive the AssistInfo referencing it — DeserializedAssist
// bundles the two.
#pragma once

#include <cmath>
#include <stdexcept>

#include "common/bytes.h"
#include "common/frame.h"
#include "net/contact.h"

namespace lbchat::net {

// Magnitude bounds for deserialized assist fields. Generous — a metro-scale
// world is O(1e4) m and V2V bandwidth O(1e8) bps — but finite, so a hostile
// frame cannot park absurd coordinates or bandwidth claims in the contact
// estimator. All enforced by WireAssist's load via WireValueError.
inline constexpr double kMaxWireAssistCoordM = 1e7;
inline constexpr double kMaxWireAssistSpeedMps = 1e4;
inline constexpr double kMaxWireAssistRouteS = 1e9;
inline constexpr double kMaxWireAssistBandwidthBps = 1e12;

/// Assist info as it travels: the route is its road-graph node sequence
/// (empty when none is shared). A load rejects non-finite or out-of-bound
/// values with WireValueError; read_assist checks the node ids.
struct WireAssist {
  Vec2 pos;
  Vec2 velocity;
  double speed = 0.0;
  double route_s = 0.0;
  double bandwidth_bps = 0.0;
  std::vector<int> route;
};

template <class Io, FieldsOf<WireAssist> S>
void fields(Io& io, S& a) {
  io(a.pos);
  io(a.velocity);
  io(a.speed);
  io(a.route_s);
  io(a.bandwidth_bps);
  if constexpr (Io::kLoad) {
    const auto bounded = [](double v, double cap) {
      return std::isfinite(v) && std::fabs(v) <= cap;
    };
    if (!bounded(a.pos.x, kMaxWireAssistCoordM) || !bounded(a.pos.y, kMaxWireAssistCoordM) ||
        !bounded(a.velocity.x, kMaxWireAssistSpeedMps) ||
        !bounded(a.velocity.y, kMaxWireAssistSpeedMps) ||
        !bounded(a.speed, kMaxWireAssistSpeedMps) || !bounded(a.route_s, kMaxWireAssistRouteS) ||
        !std::isfinite(a.bandwidth_bps) || a.bandwidth_bps < 0.0 ||
        a.bandwidth_bps > kMaxWireAssistBandwidthBps) {
      throw WireValueError{"read_assist: field out of range"};
    }
  }
  io(a.route);
}

inline void write_assist(ByteWriter& w, const AssistInfo& info) {
  WireAssist a{info.pos, info.velocity, info.speed, info.route_s, info.bandwidth_bps, {}};
  if (info.route != nullptr && !info.route->empty()) a.route = info.route->node_sequence();
  Save{w}(a);
}

/// AssistInfo plus the storage backing its route pointer. `info.route` is
/// kept null in storage (the struct stays safely movable); call view() to get
/// an AssistInfo bound to the rebuilt route.
struct DeserializedAssist {
  AssistInfo info;
  sim::Route route;  ///< rebuilt shared route (empty when none was sent)

  /// The received AssistInfo with its route pointer bound to `route`. The
  /// returned value must not outlive this DeserializedAssist.
  [[nodiscard]] AssistInfo view() const {
    AssistInfo v = info;
    v.route = route.empty() ? nullptr : &route;
    return v;
  }
};

/// Reads and validates assist info against the shared town map. Throws
/// std::out_of_range (truncated), WireValueError (non-finite or out-of-bound
/// fields), or std::runtime_error (route node ids outside the map) — corrupt
/// values would otherwise poison every downstream contact estimate.
inline DeserializedAssist read_assist(ByteReader& r, const sim::TownMap& map) {
  WireAssist a;
  Load{r}(a);
  const auto num_nodes = static_cast<int>(map.nodes().size());
  for (const int node : a.route) {
    if (node < 0 || node >= num_nodes) {
      throw std::runtime_error{"read_assist: route node id out of range"};
    }
  }
  DeserializedAssist out;
  out.info = AssistInfo{a.pos, a.velocity, a.speed, a.route_s, nullptr, a.bandwidth_bps};
  if (!a.route.empty()) out.route = sim::Route{std::move(a.route), map};
  return out;
}

}  // namespace lbchat::net
