#include "sim/town.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace lbchat::sim {

namespace {

/// Union-find for connectivity bookkeeping during generation.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(a)])];
      a = parent_[static_cast<std::size_t>(a)];
    }
    return a;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[static_cast<std::size_t>(a)] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

TownMap TownMap::generate(const TownConfig& cfg, Rng& rng) {
  TownMap map;
  map.cfg_ = cfg;

  // --- Urban grid nodes ---
  const int g = cfg.urban_grid;
  for (int r = 0; r < g; ++r) {
    for (int c = 0; c < g; ++c) {
      RoadNode n;
      n.pos = {cfg.urban_origin_m + c * cfg.urban_spacing_m,
               cfg.urban_origin_m + r * cfg.urban_spacing_m};
      map.nodes_.push_back(std::move(n));
    }
  }
  map.urban_node_count_ = g * g;

  // --- Rural ring nodes, evenly spaced around the map border ---
  const double m = cfg.rural_margin_m;
  const double side = cfg.extent_m - 2.0 * m;
  const double perimeter = 4.0 * side;
  const int ring_n = std::max(cfg.rural_ring_nodes, 4);
  const int ring_base = static_cast<int>(map.nodes_.size());
  for (int i = 0; i < ring_n; ++i) {
    const double d = perimeter * static_cast<double>(i) / ring_n;
    Vec2 p;
    if (d < side) {
      p = {m + d, m};
    } else if (d < 2 * side) {
      p = {m + side, m + (d - side)};
    } else if (d < 3 * side) {
      p = {m + side - (d - 2 * side), m + side};
    } else {
      p = {m, m + side - (d - 3 * side)};
    }
    RoadNode n;
    n.pos = p;
    map.nodes_.push_back(std::move(n));
  }

  auto add_edge = [&](int a, int b) {
    if (a == b) return;
    for (const auto& [x, y] : map.edges_) {
      if ((x == a && y == b) || (x == b && y == a)) return;
    }
    map.edges_.emplace_back(a, b);
    map.nodes_[static_cast<std::size_t>(a)].neighbors.push_back(b);
    map.nodes_[static_cast<std::size_t>(b)].neighbors.push_back(a);
  };

  // Urban grid edges (4-neighbourhood), each dropped with a small
  // probability for street-pattern variety.
  for (int r = 0; r < g; ++r) {
    for (int c = 0; c < g; ++c) {
      const int idx = r * g + c;
      if (c + 1 < g && !rng.chance(cfg.edge_drop_prob)) add_edge(idx, idx + 1);
      if (r + 1 < g && !rng.chance(cfg.edge_drop_prob)) add_edge(idx, idx + g);
    }
  }
  // Rural ring edges.
  for (int i = 0; i < ring_n; ++i) add_edge(ring_base + i, ring_base + (i + 1) % ring_n);
  // Connector roads: every third ring node links to its nearest grid node.
  for (int i = 0; i < ring_n; i += 3) {
    const Vec2 p = map.nodes_[static_cast<std::size_t>(ring_base + i)].pos;
    int best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (int j = 0; j < map.urban_node_count_; ++j) {
      const double d = distance(p, map.nodes_[static_cast<std::size_t>(j)].pos);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    add_edge(ring_base + i, best);
  }

  // Repair connectivity: greedily link closest node pairs across components.
  Dsu dsu{map.nodes_.size()};
  for (const auto& [a, b] : map.edges_) dsu.unite(a, b);
  for (;;) {
    int best_a = -1, best_b = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < map.nodes_.size(); ++a) {
      for (std::size_t b = a + 1; b < map.nodes_.size(); ++b) {
        if (dsu.find(static_cast<int>(a)) == dsu.find(static_cast<int>(b))) continue;
        const double d = distance(map.nodes_[a].pos, map.nodes_[b].pos);
        if (d < best_d) {
          best_d = d;
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
        }
      }
    }
    if (best_a < 0) break;  // single component
    add_edge(best_a, best_b);
    dsu.unite(best_a, best_b);
  }

  map.build_raster();
  return map;
}

void TownMap::build_raster() {
  raster_n_ = static_cast<int>(std::ceil(cfg_.extent_m / cfg_.raster_cell_m));
  road_mask_.assign(static_cast<std::size_t>(raster_n_) * raster_n_, 0);
  const double hw = cfg_.road_half_width_m;
  for (const auto& [a, b] : edges_) {
    const Vec2 pa = nodes_[static_cast<std::size_t>(a)].pos;
    const Vec2 pb = nodes_[static_cast<std::size_t>(b)].pos;
    // Rasterize only cells inside the segment's padded bounding box.
    const double min_x = std::min(pa.x, pb.x) - hw, max_x = std::max(pa.x, pb.x) + hw;
    const double min_y = std::min(pa.y, pb.y) - hw, max_y = std::max(pa.y, pb.y) + hw;
    const int c0 = std::max(0, static_cast<int>(min_x / cfg_.raster_cell_m));
    const int c1 = std::min(raster_n_ - 1, static_cast<int>(max_x / cfg_.raster_cell_m));
    const int r0 = std::max(0, static_cast<int>(min_y / cfg_.raster_cell_m));
    const int r1 = std::min(raster_n_ - 1, static_cast<int>(max_y / cfg_.raster_cell_m));
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        const Vec2 center{(c + 0.5) * cfg_.raster_cell_m, (r + 0.5) * cfg_.raster_cell_m};
        if (point_segment_distance(center, pa, pb) <= hw) {
          road_mask_[static_cast<std::size_t>(r) * raster_n_ + c] = 1;
        }
      }
    }
  }
  road_cells_.clear();
  for (std::uint32_t i = 0; i < road_mask_.size(); ++i) {
    if (road_mask_[i] != 0) road_cells_.push_back(i);
  }
  if (road_cells_.empty()) throw std::logic_error{"TownMap: no road cells rasterized"};
}

int TownMap::random_node(Rng& rng) const {
  return static_cast<int>(rng.uniform_index(nodes_.size()));
}

int TownMap::random_node_biased(Rng& rng, double urban_prob) const {
  if (rng.chance(urban_prob)) {
    return static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(urban_node_count_)));
  }
  const auto rural = nodes_.size() - static_cast<std::size_t>(urban_node_count_);
  if (rural == 0) return random_node(rng);
  return urban_node_count_ + static_cast<int>(rng.uniform_index(rural));
}

bool TownMap::is_urban_node(int idx) const { return idx < urban_node_count_; }

bool TownMap::connected() const {
  if (nodes_.empty()) return true;
  std::vector<char> seen(nodes_.size(), 0);
  std::queue<int> q;
  q.push(0);
  seen[0] = 1;
  std::size_t count = 1;
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (const int v : nodes_[static_cast<std::size_t>(u)].neighbors) {
      if (seen[static_cast<std::size_t>(v)] == 0) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count == nodes_.size();
}

bool TownMap::on_road(const Vec2& p) const {
  const int c = static_cast<int>(p.x / cfg_.raster_cell_m);
  const int r = static_cast<int>(p.y / cfg_.raster_cell_m);
  if (c < 0 || c >= raster_n_ || r < 0 || r >= raster_n_) return false;
  return road_mask_[static_cast<std::size_t>(r) * raster_n_ + c] != 0;
}

Vec2 TownMap::random_road_point(Rng& rng) const {
  const std::uint32_t cell = road_cells_[rng.uniform_index(road_cells_.size())];
  const int r = static_cast<int>(cell) / raster_n_;
  const int c = static_cast<int>(cell) % raster_n_;
  return {(c + rng.uniform()) * cfg_.raster_cell_m, (r + rng.uniform()) * cfg_.raster_cell_m};
}

}  // namespace lbchat::sim
