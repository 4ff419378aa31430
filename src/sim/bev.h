// Ego-centric bird-eye-view rasterization.
//
// The BEV is the model input of the driving decision task (paper §IV-A): a
// sparse binary tensor depicting the front view of the vehicle top-down.
// Channels: road surface, other vehicles, pedestrians, own planned route.
// The ego sits near the bottom-centre of the raster looking "up".
#pragma once

#include <utility>

#include "common/geometry.h"
#include "data/frame.h"
#include "sim/route.h"
#include "sim/town.h"

namespace lbchat::sim {

/// Raster anchor: the ego occupies cell (ego_row(spec), width/2).
[[nodiscard]] constexpr int ego_row(const data::BevSpec& spec) { return spec.height - 3; }
[[nodiscard]] constexpr int ego_col(const data::BevSpec& spec) { return spec.width / 2; }

/// The BEV around one ego pose (ego_pos, ego_heading), drawn a layer at a
/// time: the road channel at construction, then each agent and the route as
/// the caller walks its own storage (World renders straight from its agent
/// arrays, skipping the ego by index). A cell is only ever set, never
/// cleared, so the grid does not depend on the order of the add calls. The
/// pose's cos/sin pairs are computed once, not per cell.
class BevRaster {
 public:
  BevRaster(const data::BevSpec& spec, const TownMap& map, const Vec2& ego_pos,
            double ego_heading);

  /// Footprint cells of a car at world position `car` (a disc of
  /// `radius_m`, sampled at half-cell steps); far cars are skipped.
  void add_car(const Vec2& car, double radius_m);
  /// The cell of a pedestrian at world position `ped`; far ones are skipped.
  void add_pedestrian(const Vec2& ped);
  /// The planned path: ~45 m of `route` ahead of arc length `route_s` (an
  /// empty route leaves the channel blank).
  void add_route(const Route& route, double route_s);

  [[nodiscard]] data::BevGrid take() && { return std::move(grid_); }

 private:
  /// Mark the cell containing ego-frame point `e` (x forward, y left) in
  /// `channel`; no-op outside the raster.
  void mark(data::BevChannel channel, const Vec2& e);

  data::BevSpec spec_;
  Vec2 ego_pos_;
  Rotation minus_heading_;  ///< world -> ego rotation
  double view_radius_;
  data::BevGrid grid_;
};

}  // namespace lbchat::sim
