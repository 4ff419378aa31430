#include "net/spatial_index.h"

#include <algorithm>

namespace lbchat::net {

void NeighborIndex::rebuild(std::span<const Vec2> positions, double range_m) {
  positions_.assign(positions.begin(), positions.end());
  range_m_ = range_m;
  // Cell size >= range keeps every disc query within a 3x3 neighborhood.
  grid_.rebuild(positions_, std::max(range_m, 1e-6));
}

void NeighborIndex::query(int v, std::vector<int>& out) const {
  out.clear();
  const Vec2& p = positions_[static_cast<std::size_t>(v)];
  grid_.for_each_candidate(p, range_m_, [&](std::uint32_t i) {
    if (static_cast<int>(i) == v) return;
    // Exact filter with FleetSim::in_range's inclusive boundary, against
    // the same snapshot positions.
    if (distance(positions_[i], p) <= range_m_) out.push_back(static_cast<int>(i));
  });
  // Candidates arrive cell-major; the API contract is ascending id (so
  // strategy argmax loops visit peers in the same order as a brute scan).
  std::sort(out.begin(), out.end());
}

}  // namespace lbchat::net
