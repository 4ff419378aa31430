// Radio-range neighbor index over the fleet's per-tick position snapshot.
//
// Strategies ask "who is within radio range of vehicle v?" every tick; the
// all-pairs answer is O(n^2) per tick and a hard wall past a few hundred
// vehicles. This index rebuilds a uniform grid (cell size >= the query
// range, so a disc query touches at most a 3x3 cell neighborhood) once per
// tick from the cached vehicle positions and answers each query in output
// size + local density.
//
// Exactness contract (DESIGN.md §11): query(v) returns EXACTLY the vehicles
// b != v with distance(pos[v], pos[b]) <= range, in ascending-id order —
// the same set, same order, same inclusive boundary predicate as the
// brute-force scan, which tests/spatial_test.cpp keeps as its oracle.
#pragma once

#include <span>
#include <vector>

#include "common/geometry.h"
#include "common/spatial_grid.h"

namespace lbchat::net {

class NeighborIndex {
 public:
  /// Rebuild over a position snapshot (index i = vehicle id i). O(n).
  void rebuild(std::span<const Vec2> positions, double range_m);

  /// Append to `out` (after clearing it) every vehicle b != v with
  /// distance(pos[v], pos[b]) <= range, ascending by id.
  void query(int v, std::vector<int>& out) const;

  [[nodiscard]] double range() const { return range_m_; }
  [[nodiscard]] std::size_t size() const { return positions_.size(); }

 private:
  UniformGrid grid_;
  std::vector<Vec2> positions_;
  double range_m_ = 0.0;
};

}  // namespace lbchat::net
