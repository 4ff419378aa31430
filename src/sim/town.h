// Procedural town map — the CARLA-substitute driving environment.
//
// The paper uses CARLA's largest built-in map (~1 km x 1 km, "including both
// town and rural areas"). We generate a comparable world: a dense urban street
// grid in one quarter of the map plus a sparse rural ring with connector
// roads. Roads are straight lane segments between intersection nodes; a
// precomputed occupancy bitmap answers "is this point on a road" queries in
// O(1) for BEV rendering.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/geometry.h"
#include "common/rng.h"

namespace lbchat::sim {

struct TownConfig {
  double extent_m = 1000.0;       ///< map side length
  int urban_grid = 6;             ///< urban intersections per side
  double urban_spacing_m = 90.0;  ///< urban block size
  double urban_origin_m = 80.0;   ///< offset of the urban grid corner
  double rural_margin_m = 60.0;   ///< distance of the rural ring from the border
  int rural_ring_nodes = 12;      ///< nodes on the rural ring
  double edge_drop_prob = 0.08;   ///< fraction of urban edges removed for variety
  double road_half_width_m = 4.0;
  double raster_cell_m = 2.0;  ///< road-bitmap resolution
};

/// TownConfig's named member list (engine/scenario.h).
template <FieldsOf<TownConfig> S, class F>
void config_members(S& t, F&& f) {
  f("extent_m", t.extent_m);
  f("urban_grid", t.urban_grid);
  f("urban_spacing_m", t.urban_spacing_m);
  f("urban_origin_m", t.urban_origin_m);
  f("rural_margin_m", t.rural_margin_m);
  f("rural_ring_nodes", t.rural_ring_nodes);
  f("edge_drop_prob", t.edge_drop_prob);
  f("road_half_width_m", t.road_half_width_m);
  f("raster_cell_m", t.raster_cell_m);
}

struct RoadNode {
  Vec2 pos;
  std::vector<int> neighbors;  ///< adjacent node indices (bidirectional roads)

  [[nodiscard]] bool is_intersection() const { return neighbors.size() >= 3; }
};

class TownMap {
 public:
  /// Generate a map; always returns a single connected component.
  static TownMap generate(const TownConfig& cfg, Rng& rng);

  [[nodiscard]] const TownConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<RoadNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<std::pair<int, int>>& edges() const { return edges_; }
  [[nodiscard]] double extent() const { return cfg_.extent_m; }

  /// A uniformly random node index.
  [[nodiscard]] int random_node(Rng& rng) const;
  /// A random node biased toward the urban grid (probability `urban_prob`)
  /// or the rural ring — used to give vehicles heterogeneous home regions.
  [[nodiscard]] int random_node_biased(Rng& rng, double urban_prob) const;
  [[nodiscard]] bool is_urban_node(int idx) const;

  /// True when all nodes are mutually reachable (generation guarantees this;
  /// exposed for tests).
  [[nodiscard]] bool connected() const;

  /// O(1) road-surface query against the precomputed bitmap.
  [[nodiscard]] bool on_road(const Vec2& p) const;

  /// A uniformly random on-road point (for pedestrian/bystander spawns).
  [[nodiscard]] Vec2 random_road_point(Rng& rng) const;

 private:
  void build_raster();

  TownConfig cfg_;
  std::vector<RoadNode> nodes_;
  std::vector<std::pair<int, int>> edges_;
  int urban_node_count_ = 0;  // nodes [0, urban_node_count_) are the grid

  int raster_n_ = 0;
  std::vector<std::uint8_t> road_mask_;
  std::vector<std::uint32_t> road_cells_;  // indices of on-road cells (spawns)
};

}  // namespace lbchat::sim
