#include "sim/bev.h"

#include <algorithm>
#include <cmath>

namespace lbchat::sim {

BevRaster::BevRaster(const data::BevSpec& spec, const TownMap& map, const Vec2& ego_pos,
                     double ego_heading)
    : spec_(spec),
      ego_pos_(ego_pos),
      minus_heading_(-ego_heading),
      view_radius_(spec.cell_m * static_cast<double>(std::max(spec.height, spec.width)) * 1.5),
      grid_(spec) {
  // Road channel: sample each cell centre against the road bitmap.
  const Rotation heading{ego_heading};
  for (int r = 0; r < spec.height; ++r) {
    for (int c = 0; c < spec.width; ++c) {
      const Vec2 ego_pt{(ego_row(spec) - r) * spec.cell_m, (ego_col(spec) - c) * spec.cell_m};
      const Vec2 world_pt = to_world_frame(ego_pt, ego_pos, heading);
      if (map.on_road(world_pt)) grid_.set(spec, static_cast<int>(data::BevChannel::kRoad), r, c);
    }
  }
}

void BevRaster::mark(data::BevChannel channel, const Vec2& e) {
  const int r = ego_row(spec_) - static_cast<int>(std::lround(e.x / spec_.cell_m));
  const int c = ego_col(spec_) - static_cast<int>(std::lround(e.y / spec_.cell_m));
  if (r < 0 || r >= spec_.height || c < 0 || c >= spec_.width) return;
  grid_.set(spec_, static_cast<int>(channel), r, c);
}

void BevRaster::add_car(const Vec2& car, double radius_m) {
  if (farther_than(car, ego_pos_, view_radius_)) return;
  const Vec2 centre = to_ego_frame(car, ego_pos_, minus_heading_);
  const double step = spec_.cell_m * 0.5;
  for (double dx = -radius_m; dx <= radius_m; dx += step) {
    for (double dy = -radius_m; dy <= radius_m; dy += step) {
      if (dx * dx + dy * dy > radius_m * radius_m) continue;
      mark(data::BevChannel::kVehicles, centre + Vec2{dx, dy});
    }
  }
}

void BevRaster::add_pedestrian(const Vec2& ped) {
  if (farther_than(ped, ego_pos_, view_radius_)) return;
  mark(data::BevChannel::kPedestrians, to_ego_frame(ped, ego_pos_, minus_heading_));
}

void BevRaster::add_route(const Route& route, double route_s) {
  if (route.empty()) return;
  // Sampled densely in arc length.
  const double ahead = spec_.cell_m * static_cast<double>(spec_.height) * 1.5;
  for (double ds = 0.0; ds <= ahead; ds += spec_.cell_m * 0.75) {
    const double s = route_s + ds;
    if (s > route.length()) break;
    mark(data::BevChannel::kRoute, to_ego_frame(route.position_at(s), ego_pos_, minus_heading_));
  }
}

}  // namespace lbchat::sim
